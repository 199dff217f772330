"""Per-shape predicate timings on both fast engines (EXPERIMENTS.md, E13).

Each predicate filters the 4,000 ``<a>`` children of one element.  The
executor runs the path at the top level (a ``Scan`` in ``explain``); the
closure compiler runs it inside a typed ``local:`` function, which the
algebra hands to the compiler whole.  Each cell is the best of 7 runs, in
milliseconds, after one warm-up run whose result must equal the treewalk's.

    PYTHONPATH=src python benchmarks/predicate_shapes.py
"""

import time

from repro.xmlio import parse_document
from repro.xquery import EngineConfig, XQueryEngine

SIZE = 4000
REPEAT = 7

SHAPES = (
    '[@name eq $v]',
    '[name(.) eq $v]',
    '[@name eq "n3"]',
    '[@name = ("n3", "n4")]',
    '[@name]',
    '[2]',
    '[2e0]',
    '[position() gt 1]',
    '[last()]',
    '[@name eq $v or @x]',
    '[string(@name)]',
)

TYPED = (
    "declare function local:f($d as node(), $v as xs:string) as item()* "
    "{{ {path} }}; local:f($d, $v)"
)


def _best(query, variables):
    best = float("inf")
    for _ in range(REPEAT):
        started = time.perf_counter()
        query.run(variables=variables)
        best = min(best, time.perf_counter() - started)
    return best * 1000


def main():
    body = "".join(f'<a name="n{i}"/>' for i in range(SIZE))
    variables = {"d": parse_document(f"<r>{body}</r>"), "v": "n3"}
    engine = XQueryEngine(EngineConfig(backend="algebra", compile_cache_size=0))
    print("| predicate | executor ms | compiler ms |")
    print("|---|---|---|")
    for shape in SHAPES:
        path = f"$d/r/a{shape}"
        row = []
        for source in (path, TYPED.format(path=path)):
            query = engine.compile(source)
            reference = query.run(variables=variables, backend="treewalk")
            assert query.run(variables=variables) == reference, source
            row.append(_best(query, variables))
        print(f"| `{shape}` | {row[0]:.2f} | {row[1]:.2f} |")


if __name__ == "__main__":
    main()
