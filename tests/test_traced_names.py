"""The functions that perfbench/spans.py traces still exist under their names.

Renaming or deleting one of them (a ``suite_*`` alias, say) breaks
``perfbench/run.py --trace 1``; this test makes that visible in the unit run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in spans.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.FUNCTIONS and not missing
