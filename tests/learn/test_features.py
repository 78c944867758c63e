"""Feature extraction: determinism, placement-path invariance, memo."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    HAVE_NUMPY,
    place_batch,
    place_reference,
    place_stream,
    reset_arenas,
    reset_placement_cache,
    set_arena_numpy,
)
from repro.ir.nodes import Assign, CallStmt, Do, If
from repro.ir.parser import parse_program
from repro.ir.symtab import SymbolTable
from repro.machine.registry import cached_machine
from repro.translate.backend_opts import AGGRESSIVE_BACKEND
from repro.translate.translator import Translator
from repro.learn import (
    FEATURE_DIM,
    StaticFeatures,
    extract_static,
    feature_cache_stats,
    feature_vector,
    peek_static,
    reset_feature_cache,
)

SAXPY = """
subroutine saxpy(n, a)
  integer n, i
  real a, x(n), y(n)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end
"""

NESTED = """
subroutine nest(n, m)
  integer n, m, i, j
  real a(100), b(100), c(100)
  do i = 1, n
    do j = 1, m
      a(j) = b(j) * c(j) + a(j)
    end do
    c(i) = a(i) + 2.0
  end do
end
"""

BRANCHY = """
subroutine pick(n, t)
  integer n, i, t
  real a(n), b(n)
  do i = 1, n
    if (t .gt. 0) then
      a(i) = a(i) * 2.0
    else
      b(i) = b(i) + 1.0
    end if
  end do
end
"""

PROGRAMS = {"saxpy": SAXPY, "nested": NESTED, "branchy": BRANCHY}


@pytest.fixture(autouse=True)
def _fresh_memo():
    reset_feature_cache()
    yield
    reset_feature_cache()


def test_static_features_shape():
    static = extract_static(NESTED, "power")
    assert isinstance(static, StaticFeatures)
    assert static.variables == {"n", "m"}
    assert len(static.blocks) >= 2
    x = feature_vector(static, {"n": Fraction(8), "m": Fraction(4)})
    assert len(x) == FEATURE_DIM
    assert x[0] == 1.0          # bias


def test_vector_scales_with_trip_counts():
    static = extract_static(SAXPY, "power")
    small = feature_vector(static, {"n": 10})
    large = feature_vector(static, {"n": 1000})
    # Weighted slots grow with the trip count; structural slots do not.
    assert sum(large[1:]) > sum(small[1:])
    assert large[-1] == small[-1]


def test_unbound_variables_return_none():
    static = extract_static(NESTED, "power")
    assert feature_vector(static, {"n": 4}) is None
    assert feature_vector(static, {}) is None


def test_empty_trip_count_clamps_to_zero():
    static = extract_static(SAXPY, "power")
    empty = feature_vector(static, {"n": 0})
    negative = feature_vector(static, {"n": -5})
    assert empty == negative    # both clamp the loop away entirely


def test_memo_hits_and_peek():
    assert peek_static(SAXPY, "power") is None      # cold: memo only
    static = extract_static(SAXPY, "power")
    assert peek_static(SAXPY, "power") is static    # warmed by extract
    assert extract_static(SAXPY, "power") is static
    stats = feature_cache_stats()
    assert stats["hits"] >= 1 and stats["misses"] == 1


def test_unknown_machine_raises_keyerror():
    with pytest.raises(KeyError):
        extract_static(SAXPY, "no-such-machine")
    assert peek_static(SAXPY, "no-such-machine") is None


def test_machine_changes_features():
    power = extract_static(SAXPY, "power")
    scalar = extract_static(SAXPY, "scalar")
    assert power.fingerprint != scalar.fingerprint
    a = feature_vector(power, {"n": 16})
    b = feature_vector(scalar, {"n": 16})
    assert a != b


# ----------------------------------------------------------------------
# placement-path / lowering invariance (the fast tier must answer
# identically whichever placement path -- single stream, batch arena, or
# the reference loop -- has already seen the program's blocks)


def _block_streams(source):
    """The program's straight-line block streams, walked as extraction does."""
    program = parse_program(source)
    machine = cached_machine("power")
    translator = Translator(machine, SymbolTable.from_program(program),
                            AGGRESSIVE_BACKEND)
    streams = []

    def flush(stmts, enclosing):
        if stmts:
            instrs = list(translator.translate_block(
                tuple(stmts), enclosing).stream)
            if instrs:
                streams.append(instrs)

    def walk(stmts, enclosing):
        buffer = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                buffer.append(stmt)
                continue
            flush(buffer, enclosing)
            buffer = []
            if isinstance(stmt, CallStmt):
                flush([stmt], enclosing)
            elif isinstance(stmt, Do):
                walk(stmt.body, enclosing + (stmt.var,))
            elif isinstance(stmt, If):
                walk(stmt.then_body, enclosing)
                walk(stmt.else_body, enclosing)
        flush(buffer, enclosing)

    walk(program.body, ())
    return machine, streams


def _place_all(path, machine, streams):
    if path == "batch":
        return place_batch(machine, streams, use_memo=False)
    place = place_reference if path == "reference" else place_stream
    return [place(machine, instrs) for instrs in streams]


def _timeline(placed):
    return ([(o.time, o.completion) for o in placed.ops], placed.cycles,
            placed.block)


@pytest.mark.parametrize("name,source", sorted(PROGRAMS.items()))
def test_features_identical_across_placement_kernels(name, source):
    machine, streams = _block_streams(source)
    assert streams
    placements = {}
    vectors = {}
    for path in ("reference", "stream", "batch"):
        reset_placement_cache()
        reset_arenas()
        reset_feature_cache()
        placements[path] = [_timeline(p)
                            for p in _place_all(path, machine, streams)]
        static = extract_static(source, "power")
        vectors[path] = (
            static.digest,
            static.base,
            tuple((str(w), vec) for w, vec in static.blocks),
        )
    assert placements["reference"] == placements["stream"] \
        == placements["batch"]
    assert vectors["reference"] == vectors["stream"] == vectors["batch"]


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy for both lowerings")
def test_features_identical_across_arena_lowerings():
    outs = {}
    for enabled in (False, True):
        previous = set_arena_numpy(enabled)
        try:
            reset_feature_cache()
            static = extract_static(NESTED, "power")
            outs[enabled] = feature_vector(static, {"n": 12, "m": 7})
        finally:
            set_arena_numpy(previous)
    assert outs[False] == outs[True]


@given(
    st.sampled_from(sorted(PROGRAMS)),
    st.integers(0, 200),
    st.integers(0, 200),
    st.sampled_from(["stream", "batch"]),
)
@settings(max_examples=60, deadline=None)
def test_vector_bit_identical_under_kernel_property(name, n, m, path):
    """Property: the full vector at any point is bit-identical whichever
    placement path has run over the program's blocks -- features never
    run placement -- and that path agrees with the reference."""
    source = PROGRAMS[name]
    bindings = {"n": n, "m": m, "t": 1}
    reset_feature_cache()
    baseline = feature_vector(extract_static(source, "power"), bindings)
    machine, streams = _block_streams(source)
    reset_placement_cache()
    placed = _place_all(path, machine, streams)
    assert [_timeline(p) for p in placed] == \
        [_timeline(p) for p in _place_all("reference", machine, streams)]
    reset_feature_cache()
    static = extract_static(source, "power")
    assert feature_vector(static, bindings) == baseline


@given(st.sampled_from(sorted(PROGRAMS)), st.integers(1, 500),
       st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_extraction_deterministic_property(name, n, m):
    source = PROGRAMS[name]
    reset_feature_cache()
    first = feature_vector(extract_static(source, "power"),
                           {"n": n, "m": m, "t": 0})
    reset_feature_cache()
    second = feature_vector(extract_static(source, "power"),
                            {"n": n, "m": m, "t": 0})
    assert first == second
