import importlib

import process  # puts the checkout's src/ on sys.path
import tracer
from tracer import Span, Tracer, layer_seconds, self_times


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("cli.main", 1.0, 9.0, 0, 0),
        Span("certify.certify", 2.0, 6.0, 1, 0),
        Span("kikuchi_odd.build", 2.5, 4.0, 2, 0),
        Span("certify.eigsolve", 4.0, 5.5, 2, 0),
        Span("instances.parse", 6.5, 7.0, 1, 0),
        Span("op", 10.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == [2.0, 3.5, 1.0, 1.5, 1.5, 0.5, 2.0]
    totals = layer_seconds(spans)
    assert totals == {"bench.self_s": 4.0, "cli.self_s": 3.5, "certify.self_s": 1.0,
                      "kikuchi_odd.build_s": 1.5, "certify.eigsolve_s": 1.5,
                      "instances.parse_s": 0.5}
    # self times of a tree add up to its root spans
    assert sum(totals.values()) == 12.0


def test_overlapping_and_overhanging_children_count_once():
    spans = [Span("op", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 5.0, 0, 0), Span("b", 3.0, 7.0, 0, 0), Span("c", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def _targets():
    out = {}
    for module, cls, attr, *_ in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS + tracer.YIELD_TARGETS:
        owner = importlib.import_module(module)
        owner = owner if cls is None else getattr(owner, cls)
        out[(module, cls, attr)] = vars(owner).get(attr)
    return out


def test_wrappers_record_and_restore_the_originals():
    import hkxor
    cli = importlib.import_module("hkxor.cli")
    certify_module = importlib.import_module("hkxor.certify")
    before = _targets()
    mul_words = hkxor.pauli.mul_words
    assert tracer.wrapped_names() == []

    rec = Tracer()
    rec.install()
    try:
        assert rec.missing == []
        assert cli.certify is not before[("hkxor.cli", None, "certify")]
        assert certify_module.build_even is not before[("hkxor.certify", None, "build_even")]
        assert importlib.import_module("hkxor.sos").mul_words is not mul_words
        assert len(tracer.wrapped_names()) > len(before)
        inst = hkxor.generate(hkxor.GeneratorConfig(n=8, k=2, m=20, seed=1))
        hkxor.certify(inst, 1)
    finally:
        rec.restore()

    assert _targets() == before
    assert tracer.wrapped_names() == []
    for mod in ("hkxor", "hkxor.pauli", "hkxor.sos", "hkxor.kikuchi_even"):
        assert importlib.import_module(mod).mul_words is mul_words
    names = [s.name for s in rec.spans]
    assert names[:2] == ["instances.generate", "certify.certify"]
    assert "kikuchi_even.build" in names and "certify.eigsolve" in names
    assert all(s.parent == 1 for s in rec.spans[2:])
    assert rec.counts["pauli.rank_calls"] == 2 * rec.counts["pauli.mul_words_calls"] > 0
    assert rec.counts["kikuchi_even.edges"] == 40


def test_moment_rows_are_the_basis_words_positivity_check_enumerates(tmp_path):
    import hkxor.cli
    from hkxor.pauli import slice_size
    from workloads import classical_energy, moments, one_basis, write_instance, write_moments

    n, seed = 4, 1
    inst, mom = one_basis(n, seed), moments(n, seed)
    write_instance(tmp_path / "i.hkxor", inst)
    write_moments(tmp_path / "m.pmom", n, mom)
    sos = importlib.import_module("hkxor.sos")
    rec = Tracer()
    rec.install()
    try:
        assert len(list(sos.enumerate_slice(n, 1))) == 3 * n  # outside the span: not counted
        code = hkxor.cli.main(["witness", "--in", str(tmp_path / "i.hkxor"), "--degree", "4",
                               "--lift", str(tmp_path / "m.pmom"),
                               "--out", str(tmp_path / "w.txt")])
    finally:
        rec.restore()
    assert code == 0
    assert f"energy={classical_energy(inst, mom)}" in (tmp_path / "w.txt").read_text()
    rows = sum(slice_size(n, w) for w in range(3))
    assert rec.counts["sos.moment_rows"] == rows
    assert rec.counts["sos.pair_value_calls"] == rows * rows


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_TARGETS",
                        tracer.SPAN_TARGETS + (("hkxor.cli", None, "no_such_name", "x.y"),))
    rec = Tracer()
    rec.install()
    rec.restore()
    assert rec.missing == ["hkxor.cli.no_such_name"]
    assert tracer.wrapped_names() == []
