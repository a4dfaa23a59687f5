import numpy as np
import pytest
from scipy import ndimage

from rankpress.synthdata import (
    KINDS,
    MAX_LEVEL,
    DataFormatError,
    DistortionSpec,
    apply_distortion,
    generate_sources,
    make_eval_dataset,
    make_pair_dataset,
    pseudo_mos,
    read_dataset,
    read_eval_dataset,
    write_dataset,
    write_eval_dataset,
)
from rankpress.synthdata import _down_up, _gaussian_blur

GEOM = (1, 16, 16)


@pytest.fixture(scope="module")
def sources():
    return generate_sources(6, GEOM, seed=7)


class TestSources:
    def test_shape_dtype_range(self, sources):
        for s in sources:
            assert s.shape == GEOM
            assert s.dtype == np.float32
            assert s.min() >= 0.1 - 1e-6 and s.max() <= 0.9 + 1e-6

    def test_deterministic_per_seed(self):
        a = generate_sources(3, GEOM, seed=1)
        b = generate_sources(3, GEOM, seed=1)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_distinct_contents(self, sources):
        assert not np.array_equal(sources[0], sources[1])

    def test_prefix_stability(self):
        # growing the corpus does not change earlier patches
        short = generate_sources(2, GEOM, seed=5)
        long = generate_sources(5, GEOM, seed=5)
        for x, y in zip(short, long):
            assert np.array_equal(x, y)


class TestDistortions:
    def test_level_zero_is_identity(self, sources):
        for kind in KINDS:
            out = apply_distortion(sources[0], DistortionSpec(kind, 0), seed=3)
            assert np.array_equal(out, sources[0])

    def test_monotone_degradation(self, sources):
        # mean squared deviation from the source grows with severity
        for kind in KINDS:
            mse = []
            for level in range(1, 6):
                out = apply_distortion(sources[0], DistortionSpec(kind, level), seed=3)
                mse.append(float(np.mean((out - sources[0]) ** 2)))
            assert all(a <= b + 1e-12 for a, b in zip(mse, mse[1:])), (kind, mse)
            assert mse[0] > 0

    def test_noise_is_seeded(self, sources):
        spec = DistortionSpec("additive-gaussian-noise", 3)
        a = apply_distortion(sources[0], spec, seed=10)
        b = apply_distortion(sources[0], spec, seed=10)
        c = apply_distortion(sources[0], spec, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_quantization_reduces_distinct_values(self, sources):
        hard = apply_distortion(sources[0], DistortionSpec("uniform-quantization", 5), seed=0)
        assert len(np.unique(hard)) < len(np.unique(sources[0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DistortionSpec("salt-and-pepper", 1)


class TestGaussianBlur:
    # every sigma the generator uses: the distortion ladder, the ramp texture, and
    # the band-limited noise draws from [0.8, 2.5] (radius 3 to 10)
    SIGMAS = [0.6 * level for level in range(1, MAX_LEVEL + 1)] + [1.0, 0.8, 1.1, 1.6, 2.2, 2.5]

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bit_identical_to_ndimage(self, sigma):
        # extents from 4 to 48; below 2 * radius + 1 the reflection wraps more than once
        rng = np.random.default_rng(int(100 * sigma))
        for h, w in [(4, 4), (4, 9), (5, 7), (8, 6), (12, 12), (13, 16), (31, 24), (48, 48)]:
            planes = rng.standard_normal((3, h, w))
            expected = np.stack([ndimage.gaussian_filter(pl, sigma) for pl in planes])
            assert _gaussian_blur(planes, sigma).tobytes() == expected.tobytes(), (h, w)
            assert _gaussian_blur(planes[0], sigma).tobytes() == expected[0].tobytes(), (h, w)


def _down_up_reference(plane, factor):
    """One plane at a time, padded by ``np.pad``: the first form of the down-up."""
    h, w = plane.shape
    padded = np.pad(plane, ((0, (-h) % factor), (0, (-w) % factor)), mode="edge")
    hh, ww = padded.shape
    small = padded.reshape(hh // factor, factor, ww // factor, factor).mean(axis=(1, 3))
    return np.repeat(np.repeat(small, factor, axis=0), factor, axis=1)[:h, :w]


@pytest.mark.parametrize("factor", range(2, MAX_LEVEL + 2))
def test_down_up_matches_per_plane_reference(factor):
    rng = np.random.default_rng(factor)
    for shape in [(1, 24, 24), (3, 13, 16), (2, 4, 7)]:
        planes = rng.random(shape)
        expected = np.stack([_down_up_reference(pl, factor) for pl in planes])
        assert _down_up(planes, factor).tobytes() == expected.tobytes(), shape


class TestPseudoMos:
    def test_ordering_with_margin(self):
        # jitter is +/-0.2 so levels two apart can never invert
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert pseudo_mos(1, 6, rng) > pseudo_mos(3, 6, rng)

    def test_range(self):
        rng = np.random.default_rng(1)
        vals = [pseudo_mos(2, 6, rng) for _ in range(100)]
        assert all(6 - 2 - 0.2 <= v <= 6 - 2 + 0.2 for v in vals)

    def test_float32_exact(self):
        rng = np.random.default_rng(2)
        v = pseudo_mos(4, 6, rng)
        assert v == float(np.float32(v))


class TestPairDataset:
    def test_labels_follow_severity(self, sources):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=4, seed=3)
        assert np.array_equal(pairs["label"], pairs["lev1"] < pairs["lev2"])
        assert np.all(pairs["lev1"] != pairs["lev2"])

    def test_same_content_by_default(self, sources):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=3)
        assert np.array_equal(pairs["patches"][:, 0], pairs["patches"][:, 2])

    def test_cross_content_level_gap(self, sources):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=4, seed=3, cross_content=True)
        assert np.all(np.abs(pairs["lev1"].astype(int) - pairs["lev2"]) >= 2)

    def test_deterministic(self, sources):
        a = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=9)
        b = make_pair_dataset(sources, levels=6, pairs_per_source=2, seed=9)
        assert np.array_equal(a["patches"][:, 1], b["patches"][:, 1])
        assert np.array_equal(a["label"], b["label"])


# the container header: magic, version, count, C, H, W
HEADER_BYTES = 16


class TestContainers:
    def test_pair_round_trip(self, sources, tmp_path):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=3, seed=4)
        path = tmp_path / "pairs.rpds"
        write_dataset(path, pairs)
        back = read_dataset(path)
        assert len(back) == len(pairs)
        assert back.tobytes() == pairs.tobytes()
        assert np.array_equal(pairs["patches"][:, 0], back["patches"][:, 0])
        assert np.array_equal(pairs["patches"][:, 3], back["patches"][:, 3])
        for field in ("label", "kind", "lev1", "lev2", "mos1", "mos2"):
            assert np.array_equal(pairs[field], back[field]), field

    def test_eval_round_trip(self, sources, tmp_path):
        items = make_eval_dataset(sources[:2], levels=4, seed=5)
        path = tmp_path / "eval.rpev"
        write_eval_dataset(path, items)
        back = read_eval_dataset(path)
        assert len(back) == len(items) == 2 * len(KINDS) * 4
        assert back.tobytes() == items.tobytes()
        assert np.array_equal(items["dist"], back["dist"])
        for field in ("kind", "level", "mos"):
            assert np.array_equal(items[field], back[field]), field

    def test_truncated_file_rejected(self, sources, tmp_path):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=1, seed=6)
        path = tmp_path / "pairs.rpds"
        write_dataset(path, pairs)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_bad_magic_rejected(self, sources, tmp_path):
        items = make_eval_dataset(sources[:1], levels=3, seed=6)
        path = tmp_path / "eval.rpev"
        write_eval_dataset(path, items)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read_eval_dataset(path)

    def test_trailing_garbage_rejected(self, sources, tmp_path):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=1, seed=6)
        path = tmp_path / "pairs.rpds"
        write_dataset(path, pairs)
        path.write_bytes(path.read_bytes() + b"\0" * 7)
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_oversized_geometry_rejected(self, sources, tmp_path):
        pairs = make_pair_dataset(sources, levels=6, pairs_per_source=1, seed=6)
        path = tmp_path / "pairs.rpds"
        write_dataset(path, pairs)
        blob = bytearray(path.read_bytes())
        blob[10:HEADER_BYTES] = b"\xff" * 6  # C, H, W = 65535
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    @pytest.mark.parametrize("container", ["rpds", "rpev"])
    def test_out_of_range_kind_rejected(self, sources, tmp_path, container):
        if container == "rpds":
            records = make_pair_dataset(sources, levels=6, pairs_per_source=1, seed=6)
            write, read = write_dataset, read_dataset
        else:
            records = make_eval_dataset(sources[:1], levels=3, seed=6)
            write, read = write_eval_dataset, read_eval_dataset
        path = tmp_path / f"data.{container}"
        write(path, records)
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES + records.dtype.fields["kind"][1]] = 200  # record 0's kind byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("container, field", [("rpds", "patches"), ("rpds", "mos1"),
                                                  ("rpds", "mos2"), ("rpev", "ref"),
                                                  ("rpev", "dist"), ("rpev", "mos")])
    def test_non_finite_float_rejected(self, sources, tmp_path, container, field, value):
        if container == "rpds":
            records = make_pair_dataset(sources, levels=6, pairs_per_source=1, seed=6)
            write, read = write_dataset, read_dataset
        else:
            records = make_eval_dataset(sources[:1], levels=3, seed=6)
            write, read = write_eval_dataset, read_eval_dataset
        records[field].reshape(len(records), -1)[-1, -1] = value  # the last record's last float
        path = tmp_path / f"data.{container}"
        write(path, records)
        with pytest.raises(DataFormatError, match=f"non-finite value in {field}"):
            read(path)
