import math

import numpy as np
import pytest

import kaczlab as kl
from kaczlab import DegenerateGeometry, TomoSpec, gen_paralleltomo, phantom_image
from kaczlab.tomo import reconstruction_image


def test_shape_follows_spec():
    spec = TomoSpec(size=8, angles=tuple(np.arange(0.0, 180.0, 20.0)), rays=11)
    mat, x_true = gen_paralleltomo(spec)
    assert (mat.m, mat.n) == (9 * 11, 64)
    assert x_true.shape == (64,)


def test_axis_aligned_rays_cross_full_width():
    # two rays centered on the two pixel rows of a 2x2 grid
    mat, _ = gen_paralleltomo(TomoSpec(size=2, angles=(0.0,), rays=2))
    dense = mat.to_dense()
    np.testing.assert_allclose(dense.sum(axis=1), [2.0, 2.0], rtol=1e-12)
    # each ray meets exactly two pixels with unit length
    assert ((dense > 0).sum(axis=1) == 2).all()
    np.testing.assert_allclose(dense[dense > 0], 1.0, rtol=1e-12)


def test_entries_nonnegative_and_row_sums_bounded():
    spec = TomoSpec(size=10, angles=tuple(np.arange(0.0, 180.0, 7.0)), rays=15)
    mat, _ = gen_paralleltomo(spec)
    dense = mat.to_dense()
    assert (dense >= 0).all()
    assert dense.sum(axis=1).max() <= 10 * math.sqrt(2.0) + 1e-9


def test_forward_projection_matches_manual_integration():
    # vertical rays at 90 degrees integrate the phantom along columns
    n = 6
    mat, x_true = gen_paralleltomo(TomoSpec(size=n, angles=(90.0,), rays=n))
    img = phantom_image(n)
    sino = mat.matvec(x_true)
    for ray in range(n):
        gx = n - 1 - ray  # offsets run bottom-up across the x axis
        assert sino[ray] == pytest.approx(img[:, gx].sum(), rel=1e-12)


def test_phantom_deterministic_and_flattening():
    img = phantom_image(16)
    assert img.shape == (16, 16)
    assert set(np.unique(img)) <= {0.0, 0.35, 0.7, 1.0}
    assert np.array_equal(img, phantom_image(16))
    _, x_true = gen_paralleltomo(TomoSpec(size=16, angles=(0.0, 90.0), rays=24))
    assert np.array_equal(x_true, img.flatten(order="F"))
    np.testing.assert_array_equal(reconstruction_image(x_true, 16), img[::-1, :])


def test_degenerate_geometry_rejected():
    with pytest.raises(DegenerateGeometry):
        gen_paralleltomo(TomoSpec(size=1, angles=(0.0,), rays=3))
    with pytest.raises(DegenerateGeometry):
        gen_paralleltomo(TomoSpec(size=4, angles=(), rays=3))
    with pytest.raises(DegenerateGeometry):
        gen_paralleltomo(TomoSpec(size=4, angles=(0.0,), rays=0))
    for angles in ((0.0, math.nan), (math.inf,), (-math.inf,)):
        with pytest.raises(DegenerateGeometry):
            gen_paralleltomo(TomoSpec(size=6, angles=angles, rays=5))


EDGE_ANGLES = (0.0, 90.0, 45.0, 180.0, 1e-13, 179.999999999999, -30.0, 720.5)


def test_all_rays_hit_default_geometry():
    # every ray passes within (N-1)/2 of the centre, so it crosses the
    # inscribed circle of radius N/2 on a chord of at least sqrt(2N - 1):
    # no geometry gives a zero row.  Sparse geometries can leave a pixel
    # uncovered, a zero column, which build_matrix reports after checking
    # that no row is zero.
    built = 0
    for size in (2, 3, 7, 16):
        for rays in (1, 2 * size + 3):
            for angles in [(a,) for a in EDGE_ANGLES] + [EDGE_ANGLES]:
                spec = TomoSpec(size=size, angles=angles, rays=rays)
                try:
                    mat, _ = gen_paralleltomo(spec)
                except kl.ZeroRowOrColumn as exc:
                    assert exc.kind == "column"
                    continue
                assert mat.m == spec.n_rows
                chords = mat.matvec(np.ones(mat.n))
                assert chords.min() >= math.sqrt(2 * size - 1) - 1e-9
                built += 1
    assert built >= 4
