import numpy as np
import pytest
from scipy import stats

from smallmass.basis import DomainSpec, build_basis
from smallmass.models import build_diffusion
from smallmass.noise import (
    _mode_generator,
    apply_noise,
    load_path,
    refine,
    refine_to,
    sample_batch,
    sample_path,
    save_path,
    stack_paths,
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
    for target in (p, stack_paths([p, p])):
        for dt_max in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="dt_max must be positive"):
                refine_to(target, dt_max)


def test_apply_noise_single_mode_and_isometry():
    basis = build_basis(DomainSpec(1.0, 8))
    diff = build_diffusion(basis, factor="constant", q=1.0)
    db = np.zeros(8)
    db[0] = 0.5
    out = apply_noise(np.zeros(basis.n_nodes), db, diff, basis)
    assert abs(out[0] - 0.5) < 1e-12 and np.max(np.abs(out[1:])) < 1e-12

    zero_diff = build_diffusion(basis, factor="zero")
    assert np.all(apply_noise(np.zeros(basis.n_nodes), db, zero_diff, basis) == 0.0)

    # Ito isometry at the truncation: E ||apply_noise||_H^2 = sum(lam_i^2) dt
    dt = 1e-2
    rng = np.random.default_rng(21)
    draws = rng.normal(0.0, np.sqrt(dt), size=(10_000, 8))
    fields = apply_noise(np.zeros(basis.n_nodes), draws, diff, basis)
    second_moment = np.mean(np.sum(fields**2, axis=-1))
    expected = float(np.sum(diff.q_spectrum**2)) * dt
    assert abs(second_moment - expected) < 0.05 * expected


def test_zero_path_and_batch():
    zp = zero_path(0.5, 0.1, 3)
    assert zp.n_steps == 5 and np.all(zp.increments == 0.0)
    batch = sample_batch(50, 4, 0.2, 0.01, 5)
    assert batch.n_paths == 4
    assert batch.increments.shape == (4, 5, 20)
    for j in range(4):
        assert np.array_equal(batch.path(j).increments, sample_path(50 + j, 0.2, 0.01, 5).increments)
    with pytest.raises(ValueError):
        stack_paths([sample_path(0, 0.2, 0.01, 5), sample_path(0, 0.2, 0.02, 5)])


def test_batch_keeps_the_refinement_level():
    # A path taken back out of a refined batch refines like the path itself:
    # the next bridge level is drawn from fresh streams, not the used ones.
    p = sample_path(5, 0.2, 0.01, 3)
    fine = refine(p)
    batch = stack_paths([fine, refine(sample_path(6, 0.2, 0.01, 3))])
    assert batch.level == 1 and batch.path(0).level == 1
    again = refine(batch.path(0))
    assert again.level == 2
    assert np.array_equal(again.increments, refine(fine).increments)
    assert sample_batch(5, 2, 0.2, 0.01, 3).path(1).level == 0
    with pytest.raises(ValueError, match="refinement level"):
        stack_paths([fine, refine(refine(sample_path(6, 0.2, 0.02, 3)))])
    with pytest.raises(ValueError, match="refinement level"):
        stack_paths([fine, sample_path(6, 0.2, 0.005, 3)])


def test_apply_noise_returns_zero_without_noise_and_takes_a_weight():
    basis = build_basis(DomainSpec(1.0, 8))
    diff = build_diffusion(basis, factor="cosine", q=1.0)
    u_nodal = np.sin(np.pi * basis.x)
    db = np.linspace(-0.3, 0.4, 8)
    assert apply_noise(u_nodal, None, diff, basis) == 0.0
    assert apply_noise(u_nodal, db, build_diffusion(basis, factor="zero"), basis) == 0.0
    gam = 2.0 + np.sin(u_nodal)
    forced = basis.synthesize(diff.q_spectrum * db)
    expected = basis.analyze(diff.lambda_sigma(u_nodal) / gam * forced)
    assert np.array_equal(apply_noise(u_nodal, db, diff, basis, gam), expected)
    with pytest.raises(ValueError, match="mode increments"):
        apply_noise(u_nodal, db[:5], diff, basis)


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


def test_refine_to_refines_a_batch_member_by_member():
    batch = sample_batch(8, 3, 0.01, 1e-3, 5)
    fine = refine_to(batch, 3e-4)
    members = [refine_to(batch.path(j), 3e-4) for j in range(3)]
    assert (fine.dt, fine.n_steps, fine.level, fine.seeds) == (2.5e-4, 40, 2, batch.seeds)
    assert np.array_equal(fine.increments, stack_paths(members).increments)
    assert refine_to(batch, 1e-3) is batch  # nothing to refine: the batch itself
