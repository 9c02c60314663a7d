"""moca pauses Python's cyclic garbage collector while it builds results.

That is safe only because its results hold no reference cycles, which
reference counting alone frees: the first tests check this, in the library
and through the CLI. The others check that each paused call restores the
collector's previous state on every return path, also when paused calls
from two threads overlap, and that no collection runs inside a paused call.
"""

import contextlib
import gc
import inspect
import io
import sys
import threading
import types

import pytest

from moca import cli, engine, kb as kb_mod
from moca.engine import EvaluationContext
from moca.kb import KnowledgeBaseError
from moca import model
from moca.model import ContextFlag, UnknownEntityError, _gc_paused

from test_golden import BROKEN_KB, CASES, SYNTHETIC_KB

SEED_PATHS = kb_mod.seed_kb_paths()
SYNTHETIC_PATHS = kb_mod.expand_kb_path(SYNTHETIC_KB)
BROKEN_PATHS = kb_mod.expand_kb_path(BROKEN_KB)

#: The entry points that pause the collector.
PAUSED = (kb_mod.load, kb_mod.validate_completeness, engine.evaluate,
          engine.diff, engine.export_matrix, cli.main)


@contextlib.contextmanager
def collector(enabled: bool, gen0_threshold: int | None = None):
    """Run the body with the collector enabled or not; restore it after."""
    was_enabled, thresholds = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    if gen0_threshold is not None:
        gc.set_threshold(gen0_threshold, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if was_enabled else gc.disable)()


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _contexts(kb):
    """Two scenarios that differ in profile and flags."""
    flags = frozenset(term.flag for condition in kb.conditions
                      for term in condition.terms if isinstance(term, ContextFlag))
    first, last = kb.profiles[0], kb.profiles[-1]
    return EvaluationContext(first), EvaluationContext(last, flags)


def _exercise(paths):
    """Every paused library call on one KB; the results are dropped."""
    kb = kb_mod.load(paths).kb
    ctx_a, ctx_b = _contexts(kb)
    assert kb_mod.validate_completeness(kb) is not None
    assert engine.evaluate(kb, ctx_a)
    assert engine.diff(kb, ctx_a, ctx_b)
    assert engine.export_matrix(kb).cells


class TestNoReferenceCycles:
    @pytest.mark.parametrize("paths", [SEED_PATHS, SYNTHETIC_PATHS],
                             ids=["seed", "synthetic"])
    def test_library_results(self, paths):
        with collector(enabled=False):
            gc.collect()
            _exercise(paths)
            assert gc.collect() == 0

    def test_load_of_a_broken_kb(self):
        with collector(enabled=False):
            gc.collect()
            result = kb_mod.load(BROKEN_PATHS)
            assert result.kb is None and result.report.has_errors
            del result
            assert gc.collect() == 0

    @pytest.mark.parametrize("fmt", ["", "_json"])
    @pytest.mark.parametrize("command",
                             ["validate", "evaluate", "explain", "diff", "matrix"])
    def test_cli_cycles_do_not_grow_with_the_kb(self, command, fmt):
        """argparse's parser is cyclic garbage; nothing moca builds is."""
        seed = CASES[f"seed_{command}{fmt or '_csv' * (command == 'matrix')}"]
        synthetic = CASES[f"synthetic_{command}{fmt}"]

        def cyclic_garbage(argv) -> int:
            with collector(enabled=False):
                gc.collect()
                _quiet_main(argv)
                return gc.collect()

        cyclic_garbage(seed)  # first use may fill caches
        assert cyclic_garbage(seed) == cyclic_garbage(synthetic)


def _calls(kb) -> dict:
    """Each paused entry point, by name, as a call that returns normally."""
    ctx_a, ctx_b = _contexts(kb)
    return {
        "load": lambda: kb_mod.load(SEED_PATHS),
        "load_kb": lambda: kb_mod.load_kb(SEED_PATHS),
        "validate_completeness": lambda: kb_mod.validate_completeness(kb),
        "evaluate": lambda: engine.evaluate(kb, ctx_a),
        "diff": lambda: engine.diff(kb, ctx_a, ctx_b),
        "export_matrix": lambda: engine.export_matrix(kb),
        "main": lambda: _quiet_main(CASES["seed_validate_json"]),
    }


CALL_NAMES = ("load", "load_kb", "validate_completeness", "evaluate", "diff",
              "export_matrix", "main")


def _raise_unknown_element(kb):
    ctx = EvaluationContext(kb.profiles[0], elements=("ghost",))
    with pytest.raises(UnknownEntityError):
        engine.evaluate(kb, ctx)


def _raise_broken_kb(kb):
    with pytest.raises(KnowledgeBaseError):
        kb_mod.load_kb(BROKEN_PATHS)


class TestCollectorStateRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name", CALL_NAMES)
    def test_normal_return(self, seed_kb, name, enabled):
        call = _calls(seed_kb)[name]
        with collector(enabled):
            call()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raise_error", [_raise_unknown_element, _raise_broken_kb])
    def test_error(self, seed_kb, raise_error, enabled):
        with collector(enabled):
            raise_error(seed_kb)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", [
        (CASES["broken_validate"], 1),
        (CASES["seed_unknown_element"], 2),
        (["evaluate", "--no-such-option"], 2),
    ], ids=["invalid-kb", "unknown-element", "usage-error"])
    def test_cli_exit(self, argv, code, enabled):
        with collector(enabled):
            assert _quiet_main(argv) == code
            assert gc.isenabled() is enabled

    def test_nested_call_keeps_the_outer_pause(self, monkeypatch):
        """A paused call inside cli.main leaves the collector paused for the
        rest of main, and main alone re-enables it."""
        inner = []
        real_load = kb_mod.load

        def load(paths):
            result = real_load(paths)
            inner.append(gc.isenabled())
            return result

        monkeypatch.setattr(kb_mod, "load", load)
        with collector(enabled=True):
            assert _quiet_main(CASES["seed_evaluate"]) == 0
            assert gc.isenabled()
        assert inner == [False]



def _in_thread(target, *args, name=None) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, name=name, daemon=True)
    thread.start()
    return thread


class TestOverlappingThreads:
    """The pause is shared by all threads: the collector stays paused until
    the last overlapping call returns, then takes back its earlier state."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("first_out", ["a", "b"])
    def test_overlapping_calls(self, first_out, enabled):
        inside = {name: threading.Event() for name in "ab"}
        release = {name: threading.Event() for name in "ab"}
        seen = []

        @_gc_paused
        def hold(name):
            inside[name].set()
            assert release[name].wait(10)
            seen.append(gc.isenabled())

        second_out = "b" if first_out == "a" else "a"
        with collector(enabled):
            threads = {}
            for name in "ab":  # a enters first
                threads[name] = _in_thread(hold, name)
                assert inside[name].wait(10)
            release[first_out].set()
            threads[first_out].join(10)
            assert not gc.isenabled()
            release[second_out].set()
            threads[second_out].join(10)
            assert seen == [False, False]
            assert gc.isenabled() is enabled

    def test_call_entering_while_another_leaves(self, monkeypatch):
        """Thread x enters while y's call holds the pause, and y leaves
        before x could disable the collector: x must not leave it off."""
        y_inside, y_release, y_out = (threading.Event() for _ in range(3))

        def disable():
            if threading.current_thread().name == "x":
                y_out.wait(10)
            gc.disable()

        monkeypatch.setattr(model, "gc", types.SimpleNamespace(
            isenabled=gc.isenabled, enable=gc.enable, disable=disable))

        @_gc_paused
        def hold():
            y_inside.set()
            assert y_release.wait(10)

        with collector(enabled=True):
            y = _in_thread(hold)
            assert y_inside.wait(10)
            x = _in_thread(_gc_paused(lambda: None), name="x")
            x.join(0.5)  # x is done, or waits in its disable for y to leave
            y_release.set()
            y.join(10)
            y_out.set()
            x.join(10)
            assert gc.isenabled()

@pytest.mark.parametrize("name", CALL_NAMES)
def test_no_collection_inside_a_paused_call(seed_kb, name):
    """With a gen-0 threshold of 1 every allocation outside a pause may
    collect; a collection whose stack holds a paused function's own frame
    shows that the pause did not hold."""
    paused_code = {inspect.unwrap(func).__code__ for func in PAUSED}
    inside = []

    def callback(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in paused_code:
                inside.append(frame.f_code.co_name)
                break
            frame = frame.f_back

    call = _calls(seed_kb)[name]
    gc.callbacks.append(callback)
    try:
        with collector(enabled=True, gen0_threshold=1):
            call()
    finally:
        gc.callbacks.remove(callback)
    assert inside == []
