"""Stateful property suite for the figure entries of the :class:`ShardStore`.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives
``store_figure`` / ``load_figure`` through interleaved store / load / evict /
tear / concurrent-writer steps against an in-memory model and checks the
contract ``examples/reproduce_figures.py`` relies on:

* ``load_figure`` returns exactly the last figure stored under a key, and
  ``None`` for keys never stored or since evicted;
* deleting or corrupting an entry file (the "tear": a truncated write, a
  stale schema, an entry stamped with another key's id, raw garbage)
  degrades that key to a *miss*, never to an exception or to another key's
  figure;
* two store handles on the same directory behave as one store (last store
  wins), mirroring concurrent processes sharing a cache dir;
* no step ever leaves ``*.tmp`` droppings behind in the store directory.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.experiments.cache import spec_hash
from repro.experiments.campaign import ShardStore
from repro.experiments.results import FigureResult, SeriesResult

# A small closed universe of keys makes store/load/evict collisions (the
# interesting interleavings) likely within a short rule sequence.
payloads = st.fixed_dictionaries(
    {
        "kernel": st.sampled_from(["sorting", "cg", "svm"]),
        "trials": st.integers(min_value=1, max_value=3),
        "seed": st.sampled_from([0, 2010]),
    }
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

figures = st.builds(
    lambda fid, values: FigureResult(
        figure_id=fid,
        title=f"figure {fid}",
        x_label="rate",
        y_label="value",
        series=[
            SeriesResult(name="series", fault_rates=[0.1], values=[values]),
        ],
    ),
    fid=st.sampled_from(["6.1", "6.2", "grid"]),
    values=st.lists(finite_floats, min_size=1, max_size=4),
)

_VALID_RESULT = FigureResult("F", "t", "x", "y").to_dict()

#: Entry-file corruptions (``@ID@`` stands for the entry's own id):
#: truncated writes, non-JSON garbage, a non-object body, a body from a
#: future schema, a body stamped with another entry's id, and a
#: schema-valid body with a mangled figure.
tears = st.sampled_from(
    [
        "",
        "{",
        "not json at all",
        "[]",
        json.dumps({"schema": 999, "figure": "@ID@", "result": _VALID_RESULT}),
        json.dumps({"schema": 1, "figure": "0" * 64, "result": _VALID_RESULT}),
        json.dumps({"schema": 1, "figure": "@ID@", "result": {"series": "broken"}}),
    ]
)


class FigureStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="figure-machine-"))
        self.store = ShardStore(self.directory)
        # A second handle on the same directory: concurrent users share
        # entries and must agree with the single-store model.
        self.other_store = ShardStore(self.directory)
        self.model = {}  # spec_hash -> figure.to_dict()

    def _entry_path(self, payload) -> Path:
        return self.directory / "figures" / f"{spec_hash(payload)}.json"

    @rule(payload=payloads, figure=figures)
    def store(self, payload, figure):
        path = self.store.store_figure(payload, figure)
        assert path == self._entry_path(payload)
        self.model[spec_hash(payload)] = figure.to_dict()

    @rule(payload=payloads, figure=figures)
    def store_via_second_handle(self, payload, figure):
        self.other_store.store_figure(payload, figure)
        self.model[spec_hash(payload)] = figure.to_dict()

    @rule(payload=payloads)
    def load(self, payload):
        result = self.store.load_figure(payload)
        expected = self.model.get(spec_hash(payload))
        if expected is None:
            assert result is None
        else:
            assert result is not None and result.to_dict() == expected

    @rule(payload=payloads)
    def evict(self, payload):
        self._entry_path(payload).unlink(missing_ok=True)
        self.model.pop(spec_hash(payload), None)

    @rule(payload=payloads, junk=tears)
    def tear(self, payload, junk):
        # Simulate a torn/corrupted entry the atomic-rename path is meant to
        # prevent; however it got there, the store must treat it as a miss.
        path = self._entry_path(payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(junk.replace("@ID@", spec_hash(payload)))
        self.model.pop(spec_hash(payload), None)
        assert self.store.load_figure(payload) is None

    @invariant()
    def stores_agree_and_no_tmp_droppings(self):
        assert not list(self.directory.rglob("*.tmp"))
        for key, expected in self.model.items():
            for store in (self.store, self.other_store):
                path = store.figures_dir / f"{key}.json"
                entry = json.loads(path.read_text())
                assert entry["result"] == expected

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


TestFigureStore = FigureStoreMachine.TestCase
TestFigureStore.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
