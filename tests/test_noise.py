import numpy as np
import pytest
from scipy import stats

from smallmass.basis import SpectralBasis
from smallmass.models import Nodal, build_diffusion
from smallmass.noise import (
    NoisePath,
    _mode_generator,
    _stream_normals,
    apply_noise,
    load_path,
    refine,
    refine_to,
    sample_batch,
    sample_path,
    save_path,
    zero_path,
)


def test_determinism_and_mode_extension():
    p1 = sample_path(123, 1.0, 0.01, 6)
    p2 = sample_path(123, 1.0, 0.01, 6)
    assert np.array_equal(p1.increments, p2.increments)
    p12 = sample_path(123, 1.0, 0.01, 12)
    assert np.array_equal(p12.increments[:6], p1.increments)
    q = sample_path(124, 1.0, 0.01, 6)
    assert not np.allclose(q.increments, p1.increments)


@pytest.mark.parametrize("seed", [0, 12345, -1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize(
    "mode, level", [(1, 0), (7, 3), (2**32 - 1, 0), (1, 2**32 - 1), (2**32 - 1, 2**32 - 1)]
)
def test_mode_generator_keys_are_pinned(seed, mode, level):
    # The Philox key of stream (seed, mode, level), as first built through
    # numpy uint64 scalars; every stored or published path depends on it.
    old_mode_level = (np.uint64(mode) << np.uint64(32)) | np.uint64(level)
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), old_mode_level], dtype=np.uint64)
    pinned = np.random.Generator(np.random.Philox(key=key))
    gen = _mode_generator(seed, mode, level)
    state, pinned_state = gen.bit_generator.state["state"], pinned.bit_generator.state["state"]
    assert np.array_equal(state["key"], pinned_state["key"])
    assert np.array_equal(state["counter"], pinned_state["counter"])
    assert np.array_equal(gen.normal(size=8), pinned.normal(size=8))
    # sample_path and refine re-key one generator per call.  A generator
    # re-keyed after another stream drew an odd number of values (a partly
    # used Philox buffer and a cached 32-bit half) draws what a fresh one does.
    used = _mode_generator(seed ^ 1, mode ^ 1, level)
    used.normal(size=7)
    used.integers(0, 2**32, size=3, dtype=np.uint32)
    rekeyed = _mode_generator(seed, mode, level, used)
    fresh = _mode_generator(seed, mode, level)
    assert rekeyed is used
    assert np.array_equal(rekeyed.bit_generator.state["state"]["key"], pinned_state["key"])
    assert np.array_equal(rekeyed.normal(size=9), fresh.normal(size=9))
    u32 = {"size": 5, "dtype": np.uint32}
    assert np.array_equal(rekeyed.integers(0, 2**32, **u32), fresh.integers(0, 2**32, **u32))


def test_a_table_draws_each_stream_as_its_fresh_generator_does():
    # _stream_normals keeps one generator and one start state per table and
    # rewrites only the key words per stream: row (j, i) is what a fresh
    # generator of stream (seed_j, i + 1, level) draws, for seeds that the
    # key masks to 64 bits too.
    seeds = (0, -1, 2**63 + 5, 2**64 - 1, 12345)
    for level, scale in ((0, 0.1), (3, 0.25), (2**32 - 1, 1.0)):
        table = _stream_normals(seeds, level, 5, 7, scale)
        for j, seed in enumerate(seeds):
            for i in range(5):
                fresh = _mode_generator(seed, i + 1, level).normal(0.0, scale, 7)
                assert np.array_equal(table[j, i], fresh), (seed, i, level)
    assert np.array_equal(_stream_normals(7, 1, 3, 4, 1.0), _stream_normals((7,), 1, 3, 4, 1.0)[0])
    for n_modes, level in ((3, 2**32), (3, -1)):
        with pytest.raises(ValueError, match="must fit in 32 bits"):
            _stream_normals(1, level, n_modes, 0, 1.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_path(0, 1.0, -0.1, 4)
    with pytest.raises(ValueError):
        sample_path(0, -1.0, 0.1, 4)
    with pytest.raises(ValueError):
        sample_path(0, 1.0, 0.3, 4)  # not an integer number of steps


def test_increment_variance_frozen_band():
    # sample variance of mode-1 increments over 1e5 steps: dt +- 3*sqrt(2/n)*dt
    n = 100_000
    dt = 2e-3
    p = sample_path(7, n * dt, dt, 1)
    s2 = np.var(p.increments[0], ddof=1)
    assert abs(s2 - dt) <= 3.0 * np.sqrt(2.0 / n) * dt


def test_normality_and_independence_audit():
    n = 100_000
    dt = 1e-3
    p = sample_path(99, n * dt, dt, 3)
    z = p.increments / np.sqrt(dt)
    crit = stats.norm.ppf(1 - 5e-4)  # two-sided 1e-3 significance
    for i in range(3):
        # standardized mean and excess variance both within the band
        assert abs(z[i].mean()) * np.sqrt(n) < crit
        assert abs(np.var(z[i], ddof=1) - 1.0) < crit * np.sqrt(2.0 / n)
    for i in range(3):
        for j in range(i + 1, 3):
            corr = np.corrcoef(z[i], z[j])[0, 1]
            assert abs(corr) * np.sqrt(n) < crit


def test_refinement_preserves_coarse_path():
    p = sample_path(5, 0.64, 0.02, 4)
    f = refine(p)
    assert f.dt == 0.01 and f.n_steps == 2 * p.n_steps and f.level == 1
    assert np.allclose(f.increments[:, 0::2] + f.increments[:, 1::2], p.increments, atol=0)
    ff = refine(f)
    assert np.allclose(ff.increments[:, 0::2] + ff.increments[:, 1::2], f.increments, atol=0)
    # refinement is deterministic
    assert np.array_equal(refine(p).increments, f.increments)


def test_refined_increments_distribution():
    n = 50_000
    dt = 2e-3
    p = sample_path(11, n * dt, dt, 1)
    f = refine(p)
    z = f.increments[0] / np.sqrt(f.dt)
    assert abs(np.var(z, ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (2 * n))
    assert abs(z.mean()) < 4.0 / np.sqrt(2 * n)


def test_refine_to():
    p = sample_path(1, 1.0, 0.1, 2)
    f = refine_to(p, 0.03)
    assert f.dt == 0.025
    assert refine_to(p, 0.1).dt == 0.1


def test_refine_to_a_step_bound_of_zero_or_less_fails():
    # No number of halvings reaches a step of at most 0; refining would not end.
    p = sample_path(1, 1.0, 0.1, 2)
    for target in (p, sample_batch(1, 2, 1.0, 0.1, 2)):
        for dt_max in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="dt_max must be positive"):
                refine_to(target, dt_max)


def test_apply_noise_single_mode_and_isometry():
    basis = SpectralBasis(1.0, 8)
    diff = build_diffusion(basis, factor="constant", q=1.0)
    db = np.zeros(8)
    db[0] = 0.5
    ones = np.ones(basis.n_nodes)  # the constant factor at any u
    out = apply_noise(ones, db, diff, basis)
    assert abs(out[0] - 0.5) < 1e-12 and np.max(np.abs(out[1:])) < 1e-12

    zero_diff = build_diffusion(basis, factor="zero")
    assert np.all(apply_noise(ones, db, zero_diff, basis) == 0.0)

    # Ito isometry at the truncation: E ||apply_noise||_H^2 = sum(lam_i^2) dt
    dt = 1e-2
    rng = np.random.default_rng(21)
    draws = rng.normal(0.0, np.sqrt(dt), size=(10_000, 8))
    fields = apply_noise(ones, draws, diff, basis)
    second_moment = np.mean(np.sum(fields**2, axis=-1))
    expected = float(np.sum(diff.q_spectrum**2)) * dt
    assert abs(second_moment - expected) < 0.05 * expected


def test_zero_path_and_batch():
    zp = zero_path(0.5, 0.1, 3)
    assert zp.n_steps == 5 and np.all(zp.increments == 0.0)
    batch = sample_batch(50, 4, 0.2, 0.01, 5)
    assert batch.seed == (50, 51, 52, 53) and batch.level == 0
    assert batch.increments.shape == (4, 5, 20)
    for j in range(4):
        assert np.array_equal(batch.increments[j], sample_path(50 + j, 0.2, 0.01, 5).increments)
    same = sample_path((50, 51, 52, 53), 0.2, 0.01, 5)
    assert same.seed == batch.seed and np.array_equal(same.increments, batch.increments)


def test_a_table_whose_shape_disagrees_with_the_seed_is_rejected():
    table = sample_batch(1, 3, 0.02, 0.01, 4).increments  # (3, 4, 2)
    with pytest.raises(ValueError, match=r"\(3, 4, 2\) != \(4, 2\)"):
        NoisePath(seed=1, dt=0.01, n_steps=2, n_modes=4, level=0, increments=table)
    with pytest.raises(ValueError, match=r"\(3, 4, 2\) != \(2, 4, 2\)"):
        NoisePath(seed=(1, 2), dt=0.01, n_steps=2, n_modes=4, level=0, increments=table)
    with pytest.raises(ValueError, match=r"\(4, 2\) != \(1, 4, 2\)"):
        NoisePath(seed=(1,), dt=0.01, n_steps=2, n_modes=4, level=0, increments=table[0])


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"level": -1}, "level"),  # would refine from the level-0 streams: odd increments all 0
        ({"level": 1.5}, "level"),
        ({"level": True}, "level"),
        ({"dt": -0.01}, "dt"),  # would refine to NaN increments
        ({"dt": float("nan")}, "dt"),
        ({"dt": 0.0}, "dt"),
        ({"n_steps": 0}, "n_steps"),
        ({"n_modes": 0}, "n_modes"),
    ],
)
def test_a_path_rejects_its_fields_by_name(bad, field):
    table = sample_path(3, 0.3, 0.01, 2).increments
    fields = {"seed": 3, "dt": 0.01, "n_steps": 30, "n_modes": 2, "level": 0, **bad}
    with pytest.raises(ValueError, match=f"invalid NoisePath field {field} ="):
        NoisePath(**fields, increments=table)


def test_an_empty_batch_is_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one seed"):
            sample_batch(5, n, 0.2, 0.01, 3)
    with pytest.raises(ValueError, match="at least one seed"):
        sample_path((), 0.2, 0.01, 3)
    with pytest.raises(ValueError, match="at least one seed"):
        NoisePath(seed=(), dt=0.01, n_steps=2, n_modes=3, level=0, increments=np.zeros((0, 3, 2)))


def test_save_path_rejects_a_batch_by_format(tmp_path):
    # The dump holds one path; a batch, even of one seed, is not written.
    fn = tmp_path / "batch.bin"
    for n in (1, 2):
        with pytest.raises(ValueError, match=r"smallmass noise dump \(version 1\) holds one path"):
            save_path(sample_batch(5, n, 0.2, 0.01, 3), fn)
    assert not fn.exists()


def test_save_path_of_a_seed_past_64_bits_writes_no_file(tmp_path):
    # The seed is stored signed in 64 bits; a wider seed samples fine (its
    # streams take it modulo 2^64) but fails by name before the file is opened.
    fn = tmp_path / "wide.bin"
    for seed in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"holds a signed 64-bit seed, got {seed}"):
            save_path(sample_path(seed, 0.02, 0.01, 3), fn)
        assert not fn.exists()
    save_path(sample_path(2**63 - 1, 0.02, 0.01, 3), fn)
    assert load_path(fn).seed == 2**63 - 1


def test_apply_noise_returns_zero_without_noise_and_takes_a_weight():
    basis = SpectralBasis(1.0, 8)
    diff = build_diffusion(basis, factor="cosine", q=1.0)
    u_nodal = np.sin(np.pi * basis.x)
    db = np.linspace(-0.3, 0.4, 8)
    weight = diff.lambda_sigma(Nodal(u_nodal))
    assert apply_noise(weight, db, build_diffusion(basis, factor="zero"), basis) == 0.0
    gam = 2.0 + np.sin(u_nodal)
    forced = basis.synthesize(diff.q_spectrum * db)
    expected = basis.analyze(diff.lambda_sigma(Nodal(u_nodal)) / gam * forced)
    assert np.array_equal(apply_noise(weight / gam, db, diff, basis), expected)
    with pytest.raises(ValueError, match="mode increments"):
        apply_noise(weight, db[:5], diff, basis)


def test_zero_path_validates_like_sample_path():
    # t_final < dt, non-positive t_final or dt, and a grid that misses t_final
    for t_final, dt in ((0.05, 0.1), (0.0, 0.1), (0.5, 0.0), (0.25, 0.1)):
        with pytest.raises(ValueError):
            zero_path(t_final, dt, 3)
        with pytest.raises(ValueError):
            sample_path(0, t_final, dt, 3)


def test_binary_dump_round_trip(tmp_path):
    p = sample_path(-17, 0.3, 0.01, 4)
    fn = tmp_path / "path.bin"
    save_path(p, fn)
    q = load_path(fn)
    assert q.seed == -17 and q.dt == 0.01 and q.n_steps == 30 and q.n_modes == 4
    assert np.array_equal(q.increments, p.increments)
    # header is exactly (magic, version, seed, dt, n_steps, n_modes, level)
    # as little-endian scalars, followed by the table
    import struct

    with open(fn, "rb") as fh:
        header = struct.unpack("<8sqqdqqq", fh.read(56))
    assert header == (b"SMNOISE\0", 1, -17, 0.01, 30, 4, 0)
    assert fn.stat().st_size == 56 + 8 * 4 * 30
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(fn.read_bytes()[:40])
    with pytest.raises(ValueError):
        load_path(truncated)


def test_reloaded_path_refines_from_its_own_level(tmp_path):
    # The dump carries the refinement level, so refining a reloaded refined
    # path draws the next bridge level, not the one it already consumed.
    p = sample_path(3, 0.2, 0.01, 2)
    fn = tmp_path / "fine.bin"
    save_path(refine(p), fn)
    q = load_path(fn)
    assert q.level == 1
    assert np.array_equal(refine(q).increments, refine(refine(p)).increments)
    assert refine(q).level == 2


def test_dump_without_header_or_truncated_is_rejected_by_format(tmp_path):
    import struct

    p = sample_path(3, 0.2, 0.01, 2)
    fn = tmp_path / "path.bin"
    save_path(p, fn)
    # a table behind the old unversioned header (seed, dt, n_steps, n_modes)
    old = tmp_path / "old.bin"
    old.write_bytes(struct.pack("<qdqq", 3, 0.01, 20, 2) + p.increments.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="noise dump \\(version 1\\).*header is missing"):
        load_path(old)
    for cut in (20, 56 + 8 * 39):  # inside the header, inside the table
        short = tmp_path / f"cut{cut}.bin"
        short.write_bytes(fn.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated.*noise dump \\(version 1\\)"):
            load_path(short)


@pytest.mark.parametrize(
    "forged, field",
    [
        ({"level": -1}, "level"),
        ({"n_modes": 0}, "n_modes"),
        ({"n_steps": 0}, "n_steps"),
        ({"n_modes": -2}, "n_modes"),
        ({"n_steps": -30, "n_modes": -2}, "n_steps"),  # a table size numpy cannot reshape to
        ({"dt": float("nan")}, "dt"),
        ({"dt": -0.01}, "dt"),
        ({"dt": 0.0}, "dt"),
    ],
)
def test_dump_with_a_forged_header_is_rejected_by_field(tmp_path, forged, field):
    # A header claiming level -1 would refine from the level-0 streams that
    # made the coarse increments (every odd fine increment exactly 0); empty
    # or negative counts and a non-positive dt would load or fail in numpy.
    import struct

    p = sample_path(3, 0.3, 0.01, 2)
    head = {"seed": 3, "dt": 0.01, "n_steps": 30, "n_modes": 2, "level": 0, **forged}
    n = head["n_steps"] * head["n_modes"]  # the table size the forged header declares
    table = np.resize(p.increments.ravel(), max(n, 0)).astype("<f8").tobytes()
    fn = tmp_path / "forged.bin"
    fn.write_bytes(struct.pack("<8sqqdqqq", b"SMNOISE\0", 1, *head.values()) + table)
    with pytest.raises(ValueError, match=f"noise dump \\(version 1\\).*header field {field} ="):
        load_path(fn)


@pytest.mark.parametrize("n_times, n_modes", [(3, -1), (-2, -1), (-1, 4)])
def test_trajectory_dump_with_negative_counts_is_rejected_by_field(tmp_path, n_times, n_modes):
    import struct

    from smallmass.output import load_trajectory_bin

    fn = tmp_path / "forged.bin"
    fn.write_bytes(struct.pack("<qq", n_times, n_modes))  # declares an empty table
    field = "n_times" if n_times < 0 else "n_modes"
    with pytest.raises(ValueError, match=f"trajectory dump .*negative header field {field} ="):
        load_trajectory_bin(fn)


def test_refine_to_refines_a_batch_member_by_member():
    # A batch refined twice equals each seed's path refined twice, and refines
    # on from its own level: the next bridge level is drawn from fresh streams.
    batch = sample_batch(8, 3, 0.01, 1e-3, 5)
    fine = refine_to(batch, 3e-4)
    members = [refine_to(sample_path(8 + j, 0.01, 1e-3, 5), 3e-4) for j in range(3)]
    assert (fine.dt, fine.n_steps, fine.level, fine.seed) == (2.5e-4, 40, 2, batch.seed)
    assert np.array_equal(fine.increments, np.stack([m.increments for m in members]))
    again = refine(fine)
    assert again.level == 3
    assert np.array_equal(again.increments, np.stack([refine(m).increments for m in members]))
    assert refine_to(batch, 1e-3) is batch  # nothing to refine: the batch itself


def test_path_keeps_the_table_it_is_handed_and_copies_one_it_is_lent():
    # sample_path, refine and zero_path hand over the table they just built, read-only;
    # a writeable table, or a read-only view of one, is copied so that its owner
    # cannot change the path.
    for path in (sample_path(3, 0.01, 1e-3, 4), refine(sample_batch(3, 2, 0.01, 1e-3, 4)),
                 zero_path(0.01, 1e-3, 4)):
        assert path.increments.flags.owndata and not path.increments.flags.writeable
    table = np.zeros((4, 10))
    view = table[:, :]
    view.setflags(write=False)
    for lent in (table, view):
        path = NoisePath(seed=0, dt=1e-3, n_steps=10, n_modes=4, level=0, increments=lent)
        table[0, 0] += 1.0
        assert path.increments[0, 0] == 0.0 and not path.increments.flags.writeable
        table[0, 0] = 0.0


def test_sampling_and_refining_build_each_table_once():
    # sample_path allocates its table and nothing else of its size; refine its
    # fine table and the midpoint draws, coarse-sized (a copy would add one more each).
    import tracemalloc

    refine(sample_batch(1, 2, 0.01, 1e-3, 4))  # the first call's lazy imports
    tracemalloc.start()
    try:
        batch = sample_batch(5, 16, 0.1, 1e-4, 16)
        _, sampled = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        refine(batch)
        _, refined = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = batch.increments.nbytes
    assert sampled < 1.1 * table, sampled / table
    assert refined - before < 3.1 * table, (refined - before) / table
