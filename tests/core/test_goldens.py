"""Golden check: regenerated tables must match ``results/`` byte for byte.

The committed ``results/`` files are the reproduction's reference
output.  Because the simulation is deterministic, any byte difference
in a regenerated table means an unintended behaviour change — exactly
what performance work (event-loop rewrites, fast-forwarding, caching) must
not introduce.  A representative cross-section of experiments is
regenerated here; the complete sweep is ``python -m repro study
--export`` diffed against ``results/``.
"""

import os

import pytest

from repro.core.export import to_csv, to_json
from repro.core.study import Study

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")

#: light but representative: one end-to-end sweep (fig2a), analytic
#: figures (fig6/fig8), a coupled shared-node sweep (fig13), and every
#: static table
GOLDEN_IDS = [
    "fig2a", "fig6", "fig8", "fig13",
    "table1", "table2", "table3", "table4",
    "portability", "conclusions",
]


def _golden(name: str) -> str:
    path = os.path.join(RESULTS_DIR, name)
    assert os.path.exists(path), f"missing golden file {name}"
    # newline="" preserves the \r\n row terminators csv.writer emits
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("ident", GOLDEN_IDS)
def test_regenerated_table_matches_golden(ident):
    table = Study().experiments()[ident]()
    assert to_csv(table) == _golden(f"{ident}.csv")
    assert to_json(table) == _golden(f"{ident}.json")
