"""The benchmark's tests import the program from the checkout's ``src/``."""

from bench import use_src

use_src()
