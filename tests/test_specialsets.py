import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from symon import _gf, specialsets
from symon.modmat import (
    LINES_PER_CHUNK,
    ModMatrix,
    Modulus,
    crt_lift,
    fixed_space,
    has_eigenvalue_one,
    mat_mul,
)
from symon.prng import CounterRng
from symon.specialsets import (
    _blocks_entries,
    _core_entries,
    _excluded_corner,
    _pool_inverses,
    CompositeUnionSet,
    DirectMembership,
    FixedVectorSet,
    SetLevel,
    build_core_set,
    build_full_set,
    build_union_set,
    composite_union_cardinality,
    core_cardinality,
    count_without_eigenvalue_one,
    full_cardinality,
    no_eigenvalue_one_floor,
    sample_core_witness,
    sample_full_witness,
    select_blocks,
    union_cardinality,
)
from symon.sympgroup import (
    GroupContext,
    INFINITY,
    enumerate_group,
    is_member,
    multiplier,
    sample_uniform,
    scan_entries,
    transvection,
)


def test_floor_values():
    assert no_eigenvalue_one_floor(3, 1) == 12
    assert no_eigenvalue_one_floor(5, 1) == 90
    assert no_eigenvalue_one_floor(3, 2) == 1080
    assert no_eigenvalue_one_floor(2, 3) == 0
    for ell in (3, 5, 7, 11, 13, 17):
        for g in (1, 2, 3, 4):
            assert no_eigenvalue_one_floor(ell, g) >= 0


def test_count_without_eigenvalue_one_examples():
    assert count_without_eigenvalue_one(5, 1, 2) == 90
    assert count_without_eigenvalue_one(3, 1, 2) == 12
    assert count_without_eigenvalue_one(3, 1, 1) == 15


def test_count_against_direct_scan():
    # independent oracle: scan all 2x2 matrices in plain python
    for ell, lam in ((3, 1), (5, 2), (7, 3)):
        expected = sum(
            1 for m in itertools.product(range(ell), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % ell == lam
            and ((m[0] - 1) * (m[3] - 1) - m[1] * m[2]) % ell != 0)
        assert count_without_eigenvalue_one(ell, 1, lam) == expected


def test_select_blocks_lex():
    ctx = GroupContext.of(2, 5, 2)
    blocks = select_blocks(ctx, 2)
    assert len(blocks) == 90
    for b in blocks:
        assert not has_eigenvalue_one(b)
        assert multiplier(GroupContext.of(1, 5), b) == 2
    # first-k of the canonical enumeration, in order
    want = []
    for m in enumerate_group(GroupContext.of(1, 5), lam=2):
        if not has_eigenvalue_one(m):
            want.append(m)
        if len(want) == 90:
            break
    assert blocks == want


def test_select_blocks_availability_at_3():
    ctx = GroupContext.of(2, 3)
    blocks = select_blocks(ctx, 1)
    assert len(blocks) == 12
    assert count_without_eigenvalue_one(3, 1, 1) == 15   # 15 available >= 12 needed


@pytest.mark.parametrize("q", [2, INFINITY], ids=["q2", "qinf"])
@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_shared_pool_scan_matches_per_multiplier_scans(ell, q):
    # the pools of every multiplier, split from one genus-1 scan, against
    # one scan restricted to each multiplier, truncated to the pool size
    ctx = GroupContext.of(2, ell, q)
    lams = ctx.multiplier_values()
    need = no_eigenvalue_one_floor(ell, 1)
    for lam, pool in zip(lams, _blocks_entries(ctx, lams), strict=True):
        scan = np.concatenate([entries for entries, _ in
                               scan_entries(GroupContext.of(1, ell), lam=lam)])
        want = scan[_gf.batch_det_minus_identity(scan, ell) != 0][:need]
        assert want.shape == (need, 2, 2)
        assert pool.dtype == want.dtype and np.array_equal(pool, want)


def per_block_core_chunks(ctx, lam, blocks):
    """The core layer one pool block at a time: the per-block loop that built
    it before the one-pass build, kept as its oracle.  Yields each block's
    (rows, 4, 4) int64 chunk, in pool order."""
    ell = ctx.modulus.n
    lam %= ell
    inverses = _pool_inverses(blocks, ell)
    inv_lam = pow(lam, -1, ell)
    d1 = np.repeat(np.arange(ell, dtype=np.int64), ell)
    d2 = np.tile(np.arange(ell, dtype=np.int64), ell)
    for (b11, b12, b21, b22), minv in zip(blocks.reshape(-1, 4).tolist(), inverses.tolist()):
        b1 = inv_lam * (d1 * b21 - d2 * b11) % ell
        b2 = inv_lam * (d1 * b22 - d2 * b12) % ell
        excl = _excluded_corner(minv, (d1, d2), (b1, b2), ell)
        dgrid = np.arange(ell, dtype=np.int64)
        keep = dgrid[None, :] != excl[:, None]          # (ell^2, ell)
        pair_idx, d_vals = np.nonzero(keep)
        out = np.zeros((pair_idx.shape[0], 4, 4), dtype=np.int64)
        out[:, 0, 0] = 1
        out[:, 0, 1] = d_vals
        out[:, 1, 1] = lam
        out[:, 2, 1] = d1[pair_idx]
        out[:, 3, 1] = d2[pair_idx]
        out[:, 0, 2] = b1[pair_idx]
        out[:, 0, 3] = b2[pair_idx]
        out[:, 2, 2] = b11
        out[:, 2, 3] = b12
        out[:, 3, 2] = b21
        out[:, 3, 3] = b22
        yield out


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_core_entries_match_the_per_block_loop(ell):
    # every lam, row for row in order; compared chunk by chunk, so the
    # int64 oracle is never held whole
    ctx = GroupContext.of(2, ell)
    lams = range(1, ell)
    for lam, blocks in zip(lams, _blocks_entries(ctx, lams), strict=True):
        got = _core_entries(ctx, lam, blocks)
        assert got.dtype == np.uint8 and got.shape[1:] == (4, 4)
        at = 0
        for chunk in per_block_core_chunks(ctx, lam, blocks):
            assert np.array_equal(got[at:at + chunk.shape[0]].astype(np.int64), chunk)
            at += chunk.shape[0]
        assert at == got.shape[0] == core_cardinality(2, ell)


def test_construction_guards():
    with pytest.raises(ValueError):
        build_core_set(GroupContext.of(2, 2), 1)
    with pytest.raises(ValueError):
        build_core_set(GroupContext.of(3, 5), 1)            # g=3 not materializable
    with pytest.raises(ValueError):
        build_core_set(GroupContext.of(2, 17), 1)           # over the default cap
    with pytest.raises(ValueError):
        build_core_set(GroupContext.of(2, 37), 1, allow_large=True)   # over the hard cap
    # the block pool itself is fine past the default cap
    assert len(select_blocks(GroupContext.of(2, 17), 1)) == 4590


@pytest.mark.parametrize("make", [
    build_core_set, build_full_set, select_blocks,
    lambda ctx, lam: sample_core_witness(ctx, lam, 11, 0),
    lambda ctx, lam: sample_full_witness(ctx, lam, 11, 0),
], ids=["core", "full", "blocks", "core-witness", "full-witness"])
def test_lam_outside_the_multiplier_class_is_rejected(make):
    # the class of q = 4 mod 5 is {4, 1}; a lam-2 layer lies outside it
    with pytest.raises(ValueError, match="^lam 2 is not in the multiplier class of q=4 mod 5$"):
        make(GroupContext.of(2, 5, 4), 2)


@pytest.mark.parametrize("lam", [1, 2])
def test_core_set_at_3(lam):
    ctx = GroupContext.of(2, 3)
    s = build_core_set(ctx, lam)
    assert s.cardinality == core_cardinality(2, 3) == 216
    e1 = (1, 0, 0, 0)
    for m in s:
        basis = fixed_space(m)
        assert len(basis) == 1 and basis[0].entries == e1
        assert multiplier(ctx, m) == lam


def test_full_set_at_3():
    ctx = GroupContext.of(2, 3)
    s = build_full_set(ctx, 2)
    assert s.cardinality == full_cardinality(2, 3) == 4104
    for m in itertools.islice(s, 500):
        assert has_eigenvalue_one(m)
        assert multiplier(ctx, m) == 2


def test_full_set_at_5_single_multiplier():
    s = build_full_set(GroupContext.of(2, 5), 2)
    assert s.cardinality == full_cardinality(2, 5) == 909000


def test_union_set_at_3():
    ctx = GroupContext.of(2, 3, 2)
    s = build_union_set(ctx)
    assert s.cardinality == union_cardinality(2, 3, 2) == 8208
    assert not s.contains(ModMatrix.identity(Modulus.of(3), 4))


def duplicate_first_block(monkeypatch):
    """Make the conjugation kernel write its first block over its second."""
    conjugate = _gf.conjugate_into

    def doubled(flat, ops, p, out):
        conjugate(flat, ops, p, out)
        n = flat.shape[0]
        out[n:2 * n] = out[:n]
    monkeypatch.setattr(_gf, "conjugate_into", doubled)


def test_cardinality_is_measured_not_assumed(monkeypatch):
    duplicate_first_block(monkeypatch)
    s = build_full_set(GroupContext.of(2, 3), 1)
    assert s.cardinality == s.keys.shape[0] < full_cardinality(2, 3)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_union_build_peak_memory_stays_near_key_bytes():
    # one preallocated key array sorted in place; concatenating per-layer
    # arrays and deduplicating them twice had peaked at about 5x the keys.
    # The child reads its own VmRSS and VmHWM, as ru_maxrss would carry
    # pytest's peak across exec
    code = ("from symon.specialsets import build_union_set\n"
            "from symon.sympgroup import GroupContext\n"
            "def status(field):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(ln.split()[1]) for ln in fh if ln.startswith(field))\n"
            "ctx = GroupContext.of(2, 5, 2)\n"
            "before = status('VmRSS:')\n"
            "s = build_union_set(ctx)\n"
            "print(before, status('VmHWM:'), s.keys.nbytes)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before_kib, peak_kib, key_bytes = map(int, proc.stdout.split())
    assert key_bytes == 8 * union_cardinality(2, 5, 2)
    assert (peak_kib - before_kib) * 1024 <= 2 * key_bytes


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_core_build_peak_memory_is_bounded():
    # the 4.06M-row core at ell=13 is 65 MB of uint8 entries and 32 MB of
    # keys; casting all entries to float64 at once for packing (520 MB)
    # had peaked at about 720 MB
    code = ("from symon.specialsets import build_core_set\n"
            "from symon.sympgroup import GroupContext\n"
            "s = build_core_set(GroupContext.of(2, 13), 1)\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(s.cardinality, *[ln.split()[1] for ln in fh if ln.startswith('VmHWM:')])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, peak_kib = map(int, proc.stdout.split())
    assert count == core_cardinality(2, 13)
    assert peak_kib < 350 * 1024


def test_conjugate_distinctness_exhaustive_at_3():
    # for every core element: shear conjugates are pairwise distinct and
    # meet the core only at the element itself
    ctx = GroupContext.of(2, 3)
    core = build_core_set(ctx, 1)
    core_keys = {m.flat() for m in core}
    for m in core:
        conj = set()
        for a3 in range(3):
            for a4 in range(3):
                for beta in range(1, 3):
                    t = transvection(ctx, (a3, a4), beta)
                    tinv = transvection(ctx, (a3, a4), -beta)
                    c = mat_mul(mat_mul(tinv, m), t)
                    conj.add(c.flat())
        assert len(conj) == 3 ** 2 * 2
        assert m.flat() not in conj
        assert not (conj & core_keys)


def test_direct_membership_matches_materialized_everywhere(gsp4_f3):
    # agreement on every single member of the ambient group at ell=3, q=2
    entries, lams = gsp4_f3
    ctx = GroupContext.of(2, 3, 2)
    union = build_union_set(ctx)
    direct = DirectMembership(ctx)
    flats = entries.reshape(entries.shape[0], -1)
    in_set = union.contains_flat(flats)
    for i in range(entries.shape[0]):
        rows = [[int(x) for x in entries[i, r]] for r in range(4)]
        assert direct.contains_rows(rows) == bool(in_set[i])
    # and on a sample of non-group matrices both say no
    rng = CounterRng(77, 0)
    for _ in range(200):
        rows = [[rng.below(3) for _ in range(4)] for _ in range(4)]
        m = ModMatrix.from_rows(Modulus.of(3), rows)
        assert direct.contains(m) == union.contains(m)


def test_direct_membership_matches_materialized_at_5():
    # seeded members of the ell=5, q=2 union and uniform draws from the class
    ell = 5
    ctx = GroupContext.of(2, ell, 2)
    union = build_union_set(ctx)
    direct = DirectMembership(ctx)
    rng = np.random.default_rng(5)
    picks = rng.choice(union.keys.shape[0], size=10_000, replace=False)
    for flat in _gf.unpack_entries(union.keys[picks], ell, 16):
        assert direct.contains_rows(flat.reshape(4, 4).tolist())
    lams = ctx.multiplier_values()
    draws = [sample_uniform(ctx, lams[i % len(lams)], 55, i) for i in range(10_000)]
    in_set = union.contains_flat(np.array([m.flat() for m in draws], dtype=np.int64))
    assert 0 < in_set.sum() < len(draws)
    for m, hit in zip(draws, in_set):
        assert direct.contains_rows([list(r) for r in m.rows]) == bool(hit)


def test_membership_dispatch_and_self_membership():
    ctx = GroupContext.of(2, 3, 2)
    s = build_full_set(ctx, 2)
    count = 0
    for m in s:
        assert s.contains(m)
        count += 1
        if count == 300:
            break


def test_composite_membership_via_crt():
    g, q = 2, 2
    ctx15 = GroupContext.of(g, 15, q)
    comp = CompositeUnionSet(ctx15)
    full3 = build_full_set(GroupContext.of(g, 3, q), 2)
    full5 = build_full_set(GroupContext.of(g, 5, q), 2)
    mats3 = list(itertools.islice(full3, 40))
    mats5 = list(itertools.islice(full5, 40))
    rng = CounterRng(3, 1)
    for _ in range(60):
        x = mats3[rng.below(len(mats3))]
        y = mats5[rng.below(len(mats5))]
        lifted = crt_lift([x, y])
        assert comp.contains(lifted)
    assert not comp.contains(ModMatrix.identity(Modulus.of(15), 4))
    assert comp.cardinality == composite_union_cardinality(g, 15, q)
    # a similitude of multiplier 7, outside the powers (2, 4, 8, 1) of 2 mod 15
    seven = ModMatrix.from_rows(Modulus.of(15), [[1, 0, 0, 0], [0, 7, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 7]])
    assert is_member(GroupContext.of(g, 15), seven)
    assert not comp.contains(seven)


def test_direct_membership_rejects_a_multiplier_outside_the_class():
    # diag(1, 2, 1, 2) has multiplier 2, outside the powers (4, 1) of 4 mod 5
    ctx = GroupContext.of(2, 5, 4)
    rows = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    assert multiplier(GroupContext.of(2, 5), ModMatrix.from_rows(ctx.modulus, rows)) == 2
    assert not DirectMembership(ctx).contains_rows(rows)


def test_direct_membership_checks_the_shear_lands_on_the_core(monkeypatch):
    # The shear built from the fixed vector v maps v to e_1, so its
    # conjugate of a member always fixes e_1 and the e_1-column check never
    # fails on its own; a shear that is the identity must make it fail.
    ctx = GroupContext.of(2, 3)
    member = next(m for m in build_full_set(ctx, 1) if m.rows[1][0] != 0)
    rows = [list(r) for r in member.rows]
    oracle = DirectMembership(ctx)
    assert oracle.contains_rows(rows)
    eye = np.eye(4, dtype=np.int64)
    monkeypatch.setattr(specialsets, "_conjugator_pair", lambda *args: (eye, eye))
    assert not oracle.contains_rows(rows)


def test_composite_counts():
    assert composite_union_cardinality(2, 15, 2) == 4 * 4104 * 909000
    assert composite_union_cardinality(2, 5, 2) == union_cardinality(2, 5, 2) == 4 * 909000
    assert composite_union_cardinality(2, 15, INFINITY) == (2 * 4104) * (4 * 909000)


def test_union_cardinality_examples():
    assert union_cardinality(2, 5, 2) == 3636000
    assert union_cardinality(2, 5, INFINITY) == 4 * 909000
    assert union_cardinality(2, 3, 2) == 2 * 4104


def test_dump_load_round_trip():
    ctx = GroupContext.of(2, 3, 2)
    s = build_full_set(ctx, 2)
    buf = io.StringIO()
    s.dump(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# dim=4 mod=3"
    assert len(text.splitlines()) == 1 + 4104
    loaded = FixedVectorSet.load(io.StringIO(text), ctx, 2, SetLevel.FULL)
    assert loaded.cardinality == s.cardinality
    assert bool((loaded.keys == s.keys).all())
    buf2 = io.StringIO()
    loaded.dump(buf2)
    assert buf2.getvalue() == text


def test_dump_load_round_trip_across_reader_chunks():
    # 150,001 distinct keys mod 5: more than two chunks of the dump writer
    # (iter_entries) and of the reader, the last one partial
    ctx = GroupContext.of(2, 5)
    entries = np.random.default_rng(5).integers(0, 5, size=(150_001, 16))
    keys = _gf.unique_keys(_gf.pack_entries(entries, 5))
    assert keys.shape[0] == 150_001 > 2 * LINES_PER_CHUNK
    s = FixedVectorSet(ctx, None, SetLevel.UNION, keys)
    buf = io.StringIO()
    assert s.dump(buf) == 150_001
    text = buf.getvalue()
    loaded = FixedVectorSet.load(io.StringIO(text), ctx, None, SetLevel.UNION)
    assert loaded.cardinality == 150_001
    assert np.array_equal(loaded.keys, keys)
    buf2 = io.StringIO()
    loaded.dump(buf2)
    assert buf2.getvalue() == text


def test_load_rejects_duplicates():
    ctx = GroupContext.of(2, 3, 2)
    s = build_core_set(ctx, 2)
    buf = io.StringIO()
    s.dump(buf)
    lines = buf.getvalue().splitlines()
    lines.append(lines[1])
    with pytest.raises(ValueError):
        FixedVectorSet.load(io.StringIO("\n".join(lines) + "\n"), ctx,
                            2, SetLevel.CORE)


@pytest.mark.parametrize("g,ell,lam", [(2, 7, 3), (3, 5, 2)])
def test_witness_samplers(g, ell, lam):
    ctx = GroupContext.of(g, ell)
    e1 = tuple(1 if i == 0 else 0 for i in range(2 * g))
    for index in range(25):
        w = sample_core_witness(ctx, lam, 11, index)
        assert multiplier(ctx, w) == lam
        basis = fixed_space(w)
        assert len(basis) == 1 and basis[0].entries == e1
        f = sample_full_witness(ctx, lam, 11, index)
        assert multiplier(ctx, f) == lam
        assert has_eigenvalue_one(f)
    assert sample_core_witness(ctx, lam, 11, 3) == sample_core_witness(ctx, lam, 11, 3)


def test_core_witness_lands_in_core_at_small_size():
    ctx = GroupContext.of(2, 3)
    core_all_blocks = {m.flat() for m in build_core_set(ctx, 1)}
    # the witness uses any eigenvalue-one-free block; at (g=2, ell=3, lam=1)
    # the canonical pool has 12 of the 15 eligible blocks, so witnesses may
    # fall outside the pinned set but must always have the core shape
    inside = 0
    for index in range(60):
        w = sample_core_witness(ctx, 1, 5, index)
        if w.flat() in core_all_blocks:
            inside += 1
        col0 = tuple(row[0] for row in w.rows)
        assert col0 == (1, 0, 0, 0)
    assert inside > 0


def test_sidecar_fields():
    ctx = GroupContext.of(2, 3, 2)
    s = build_union_set(ctx)
    side = s.sidecar()
    assert side == {"g": 2, "n": 3, "q": 2, "level": "union",
                    "strategy": "lex-canonical", "cardinality": "8208",
                    "seed-independent": True}
    assert s.lam is None
    assert build_union_set(GroupContext.of(2, 3)).lam is None
    core = build_core_set(ctx, 5)
    assert core.lam == 2 and core.sidecar()["lam"] == 2


def read_sidecar(info):
    """FixedVectorSet.read_sidecar on a sidecar with the JSON ``info``."""
    text = info if isinstance(info, str) else json.dumps(info)
    return FixedVectorSet.read_sidecar(io.StringIO(text), "s.json")


CORE_SIDECAR = {"g": 2, "n": 3, "q": "inf", "level": "core", "strategy": "lex-canonical",
                "cardinality": "216", "seed-independent": True, "lam": 1}
UNION_SIDECAR = {**{k: v for k, v in CORE_SIDECAR.items() if k != "lam"}, "level": "union"}


def test_read_sidecar_returns_what_the_writer_wrote():
    for s in (build_core_set(GroupContext.of(2, 3, 2), 2), build_union_set(GroupContext.of(2, 3))):
        buf = io.StringIO()
        s.write_sidecar(buf)
        buf.seek(0)
        assert FixedVectorSet.read_sidecar(buf, "s.json") == (s.ctx, s.lam, s.level,
                                                             str(s.cardinality))
    assert read_sidecar(dict(CORE_SIDECAR, q=4, cardinality=216))[::3] == (
        GroupContext.of(2, 3, 4), 216)


MALFORMED_SIDECARS = {
    "not-json": ("{", "sidecar s.json is not JSON: Expecting property name enclosed in "
                      "double quotes: line 1 column 2 (char 1)"),
    "not-an-object": ([CORE_SIDECAR], "sidecar s.json is not a JSON object"),
    **{f"{level}-without-{key}": ({k: v for k, v in base.items() if k != key},
                                  f"sidecar s.json lacks {key}")
       for level, base in (("core", CORE_SIDECAR), ("full", dict(CORE_SIDECAR, level="full")),
                           ("union", UNION_SIDECAR))
       for key in base if key not in ("level", "seed-independent")},
    "core-without-level": ({k: v for k, v in CORE_SIDECAR.items() if k != "level"},
                           "sidecar s.json lacks level"),
    "union-without-level": ({k: v for k, v in UNION_SIDECAR.items() if k != "level"},
                            "sidecar s.json lacks level, lam"),
    **{f"{key}-{value!r}": (dict(CORE_SIDECAR, **{key: value}),
                            "sidecar s.json: g, n and lam must be integers")
       for key in ("g", "n", "lam") for value in ("2", 2.0, True, None)},
    "another-pool": (dict(CORE_SIDECAR, strategy="explicit-g2"),
                     "sidecar s.json: strategy must be 'lex-canonical', got 'explicit-g2'"),
    "g-3": (dict(CORE_SIDECAR, g=3, n=7),
            "materialization is implemented for g = 2 only; use the cardinality formulas "
            "and witness samplers for larger g"),
    "n-100000007": (dict(UNION_SIDECAR, n=100000007),
                    "ell=100000007 exceeds the materialization cap 31"),
    "q-not-a-number": (dict(CORE_SIDECAR, q="two"), "q must be an integer or 'inf', got 'two'"),
    "level-unknown": (dict(CORE_SIDECAR, level="half"), "'half' is not a valid SetLevel"),
}


@pytest.mark.parametrize("case", MALFORMED_SIDECARS)
def test_read_sidecar_rejects_a_malformed_sidecar(case):
    info, message = MALFORMED_SIDECARS[case]
    with pytest.raises(ValueError) as exc:
        read_sidecar(info)
    assert str(exc.value) == message
