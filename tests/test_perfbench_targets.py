"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps planloc
functions by name; each name it lists must exist, or only that run breaks."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    assert layers.TARGETS
    missing = [t.name for t in layers.TARGETS if not callable(getattr(t.owner, t.attr, None))]
    assert missing == []
