"""Runner for the XQuery implementation of the document generator.

The generator itself is genuinely written in XQuery — the ``modules/*.xq``
files next to this module — and executed by :mod:`repro.xquery`.  The
Python side only:

* concatenates the library modules with ``main.xq`` into one program (the
  2004 engine had no module system to speak of, and neither does ours);
* binds the external variables (``$model``, ``$metamodel``, ``$template``);
* runs the five phases, each a whole-document copy, measuring the bytes
  each phase re-serializes (experiment E4's evidence);
* splits the single output stream into document + problems with the
  mini-XSLT program, as the paper did.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, Optional

from ...awb.model import Model
from ...awb.xml_io import export_metamodel, export_model
from ...xdm import ElementNode, Node
from ...xmlio import serialize
from ...xquery import EngineConfig, TraceLog, XQueryEngine
from ...xslt import transform
from ..template import GenerationResult, Problem, TocEntry, load_template

MODULES_DIR = os.path.join(os.path.dirname(__file__), "modules")
MODULES_TC_DIR = os.path.join(os.path.dirname(__file__), "modules_trycatch")

#: library modules, in concatenation order (prolog-only files first).
LIBRARY_MODULES = ("util.xq", "calc.xq", "directives.xq", "walk.xq")

#: the exceptions-regime variant (see DESIGN.md ablation A4): same
#: behaviour, written with the try/catch extension instead of the
#: error-as-value convention.
LIBRARY_MODULES_TC = ("util_tc.xq", "calc_tc.xq", "directives_tc.xq", "walk_tc.xq")

#: the stream-splitting stylesheets ("a little XSLT program could split
#: them apart").
SPLIT_DOCUMENT_XSLT = """
<xsl:stylesheet>
  <xsl:template match="/">
    <xsl:apply-templates select="output-streams/document"/>
  </xsl:template>
  <xsl:template match="document">
    <xsl:copy-of select="child::node()"/>
  </xsl:template>
</xsl:stylesheet>
"""

SPLIT_PROBLEMS_XSLT = """
<xsl:stylesheet>
  <xsl:template match="/">
    <problem-report>
      <xsl:copy-of select="output-streams/problems/problem"/>
    </problem-report>
  </xsl:template>
</xsl:stylesheet>
"""


def read_module(name: str) -> str:
    """Read one shipped .xq module's source text (either regime's dir)."""
    directory = MODULES_TC_DIR if name.endswith("_tc.xq") else MODULES_DIR
    with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
        return handle.read()


def assemble_main_program(error_regime: str = "values") -> str:
    """The phase-1 program: the main module's prolog + the library.

    ``error_regime`` selects the 2004 error-as-value sources ("values")
    or the try/catch rewrite ("exceptions").  The main module contributes
    the ``declare variable`` prolog and the body; library declarations are
    spliced in before the body expression.
    """
    if error_regime == "values":
        main_source = read_module("main.xq")
        modules = LIBRARY_MODULES
    elif error_regime == "exceptions":
        main_source = read_module("main_tc.xq")
        modules = LIBRARY_MODULES_TC
    else:
        raise ValueError(f"unknown error regime {error_regime!r}")
    library = "\n".join(read_module(name) for name in modules)
    marker = "<phase1-output>"
    index = main_source.index(marker)
    return main_source[:index] + "\n" + library + "\n" + main_source[index:]


class XQueryDocumentGenerator:
    """Generates documents by running the XQuery generator sources."""

    def __init__(
        self,
        model: Model,
        engine: Optional[XQueryEngine] = None,
        config: Optional[EngineConfig] = None,
        error_regime: str = "values",
    ):
        if error_regime not in ("values", "exceptions"):
            raise ValueError(f"unknown error regime {error_regime!r}")
        self.error_regime = error_regime
        self.model = model
        if engine is not None:
            self.engine = engine
        else:
            self.engine = XQueryEngine(config=config or EngineConfig())
        self._model_xml: Optional[ElementNode] = None
        self._metamodel_xml: Optional[ElementNode] = None
        self._compiled: Dict[str, object] = {}

    def invalidate_export(self) -> None:
        """Drop cached model XML (call after mutating the model)."""
        self._model_xml = None

    @property
    def model_xml(self) -> ElementNode:
        if self._model_xml is None:
            self._model_xml = export_model(self.model).document_element()
        return self._model_xml

    @property
    def metamodel_xml(self) -> ElementNode:
        if self._metamodel_xml is None:
            self._metamodel_xml = export_metamodel(self.model.metamodel)
        return self._metamodel_xml

    def _compiled_query(self, key: str, read_source: Callable[[], str]):
        """The program compiled for *key*; its source is read on a miss only."""
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self.engine.compile(read_source())
            self._compiled[key] = compiled
        return compiled

    def generate(self, template_source, trace: Optional[TraceLog] = None) -> GenerationResult:
        """Run all five phases plus the XSLT stream split."""
        template = load_template(template_source)
        bytes_per_phase: Dict[str, int] = {}

        def measure(phase: str, node: Node) -> Node:
            bytes_per_phase[phase] = len(serialize(node))
            return node

        # Phase 1: generate the whole document (with INTERNAL-DATA).
        main_program = self._compiled_query(
            f"main-{self.error_regime}", partial(assemble_main_program, self.error_regime)
        )
        phase1 = main_program.run(
            variables={
                "model": self.model_xml,
                "metamodel": self.metamodel_xml,
                "template": template,
            },
            trace=trace,
        )
        document = _single_element(phase1, "phase1-output")
        inner = document.child_elements()
        current: ElementNode = inner[0] if inner else document
        measure("phase1_generate", current)

        # Phases 2-4: whole-document copies.
        for phase_name, module, extra in (
            ("phase2_omissions", "phase_omissions.xq", True),
            ("phase3_toc", "phase_toc.xq", False),
            ("phase4_replace", "phase_replace.xq", False),
        ):
            program = self._compiled_query(module, partial(read_module, module))
            variables = {"doc": current}
            if extra:
                variables["model"] = self.model_xml
                variables["metamodel"] = self.metamodel_xml
            result = program.run(variables=variables, trace=trace)
            current = _single_element(result, phase_name)
            measure(phase_name, current)

        # Phase 5: strip INTERNAL-DATA and assemble the output streams.
        strip_program = self._compiled_query(
            "phase_strip.xq", partial(read_module, "phase_strip.xq")
        )
        streams_result = strip_program.run(variables={"doc": current}, trace=trace)
        streams = _single_element(streams_result, "output-streams")
        measure("phase5_strip", streams)

        # The XSLT split.
        document_nodes = transform(SPLIT_DOCUMENT_XSLT, _as_document(streams))
        problems_nodes = transform(SPLIT_PROBLEMS_XSLT, _as_document(streams))
        final_document = _first_element(document_nodes) or ElementNode("document")

        problems = _problems_from(problems_nodes)
        toc = _toc_from(current)
        visited = _visited_from(current)
        return GenerationResult(
            document=final_document,
            problems=problems,
            toc=toc,
            visited_node_ids=visited,
            metrics={
                "implementation": "xquery",
                "error_regime": self.error_regime,
                "backend": self.engine.config.backend,
                "phases": 5,
                "bytes_per_phase": bytes_per_phase,
                "bytes_copied_total": sum(bytes_per_phase.values()),
            },
        )


def _single_element(result, what: str) -> ElementNode:
    elements = [item for item in result if isinstance(item, ElementNode)]
    if len(elements) != 1:
        raise RuntimeError(
            f"{what}: expected one root element from the phase, got {len(elements)}"
        )
    return elements[0]


def _first_element(nodes: List[Node]) -> Optional[ElementNode]:
    for node in nodes:
        if isinstance(node, ElementNode):
            return node
    return None


def _as_document(root: ElementNode):
    from ...xdm import DocumentNode

    return DocumentNode([root.copy()])


def _problems_from(nodes: List[Node]) -> List[Problem]:
    report = _first_element(nodes)
    problems: List[Problem] = []
    if report is None:
        return problems
    for entry in report.child_elements("problem"):
        problems.append(
            Problem(
                message=entry.string_value(),
                severity=entry.get_attribute("severity") or "error",
                directive=entry.get_attribute("directive"),
            )
        )
    return problems


def _toc_from(phase_output: ElementNode) -> List[TocEntry]:
    entries: List[TocEntry] = []
    for index, node in enumerate(
        (
            n
            for n in phase_output.descendants_or_self()
            if isinstance(n, ElementNode) and n.name == "TOC-ENTRY"
        ),
        start=1,
    ):
        entries.append(
            TocEntry(
                level=int(node.get_attribute("level") or 1),
                text=node.get_attribute("text") or "",
                anchor=f"sec-{index}",
            )
        )
    return entries


def _visited_from(phase_output: ElementNode) -> List[str]:
    seen: Dict[str, None] = {}
    for node in phase_output.descendants_or_self():
        if isinstance(node, ElementNode) and node.name == "VISITED":
            node_id = node.get_attribute("node-id")
            if node_id:
                seen.setdefault(node_id, None)
    return list(seen)
