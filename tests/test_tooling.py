"""The benchmark's span table must keep naming code that exists.

perfbench/spans.py patches functions by (module, attribute) and RealAlg
methods by name when a run is traced.  A renamed or deleted target would
only fail inside `perfbench/run.py --trace 1`; this test reads the table
and fails at once instead.  The file is loaded, never modified.
"""

import importlib
import types
from pathlib import Path

from ltireach.exactnum import RealAlg

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """Execute spans.py from its text, so no bytecode is written next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
    missing = []
    for table in (spans.SPANNED, spans.GENERATORS, spans.COUNTED):
        for mod_name, attr in table:
            if not hasattr(importlib.import_module(mod_name), attr):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_every_counted_realalg_method_exists():
    spans = load_spans()
    assert [m for m in spans.COUNTED_METHODS if m not in RealAlg.__dict__] == []
