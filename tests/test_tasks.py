"""Tests for episode generation and the COMLN-EP v1 file format."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from comln.loss import EmbeddedSet
from comln.tasks import (
    DimensionInconsistencyError,
    Episode,
    MalformedHeaderError,
    TaskGenConfig,
    TruncatedFileError,
    episode_stream,
    load_episodes,
    sample_episode,
    write_episodes,
)

CFG = TaskGenConfig(way=5, shot=1, test_shots=15, input_dim=16, seed=42)


class TestSampling:
    def test_shapes_and_balance(self):
        ep = sample_episode(CFG, 0)
        assert ep.train.features.shape == (5, 16)
        assert ep.test.features.shape == (75, 16)
        np.testing.assert_array_equal(ep.train.labels.sum(axis=0), np.ones(5))
        np.testing.assert_array_equal(ep.test.labels.sum(axis=0), np.full(5, 15))

    def test_determinism(self):
        a = sample_episode(CFG, 3)
        b = sample_episode(CFG, 3)
        np.testing.assert_array_equal(a.train.features, b.train.features)
        np.testing.assert_array_equal(a.test.features, b.test.features)

    def test_distinct_indices_differ(self):
        a = sample_episode(CFG, 0)
        b = sample_episode(CFG, 1)
        assert not np.array_equal(a.train.features, b.train.features)

    def test_noiseless_examples_sit_on_prototypes(self):
        cfg = TaskGenConfig(way=3, shot=2, test_shots=4, input_dim=8, noise_std=0.0)
        ep = sample_episode(cfg, 0)
        # All examples of one class coincide, and a nearest-prototype rule
        # classifies the test set perfectly.
        prototypes = ep.train.features[::2]
        for c in range(3):
            rows = ep.test.features[ep.test.labels[:, c] == 1.0]
            np.testing.assert_array_equal(
                rows, np.tile(prototypes[c], (len(rows), 1))
            )
        dists = ((ep.test.features[:, None, :] - prototypes[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(
            np.argmin(dists, axis=1), np.argmax(ep.test.labels, axis=1)
        )

    def test_train_test_disjoint(self):
        for idx in range(10):
            ep = sample_episode(CFG, idx)
            train = {row.tobytes() for row in ep.train.features}
            for row in ep.test.features:
                assert row.tobytes() not in train

    def test_stream_matches_indexing(self):
        stream = episode_stream(CFG, start=4)
        ep = next(stream)
        np.testing.assert_array_equal(
            ep.train.features, sample_episode(CFG, 4).train.features
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TaskGenConfig(way=1)
        with pytest.raises(ValueError):
            TaskGenConfig(noise_std=-0.1)

    @pytest.mark.parametrize("way, shot", [(5, 1), (10, 5)])
    def test_episodes_share_one_read_only_label_matrix_per_split(self, way, shot):
        cfg = TaskGenConfig(way=way, shot=shot, test_shots=15)
        a, b = sample_episode(cfg, 0), sample_episode(cfg, 1)
        for split, per_class in (("train", shot), ("test", 15)):
            labels = getattr(a, split).labels
            assert getattr(b, split).labels is labels
            assert not labels.flags.writeable
            with pytest.raises(ValueError):
                labels[0, 0] = 0.0
            np.testing.assert_array_equal(
                labels, np.eye(way)[np.repeat(np.arange(way), per_class)]
            )

    def test_sampled_episodes_are_pinned(self):
        # The sha256 of both splits' features and labels of episodes 0-9 of
        # two families.  Generator streams may differ across numpy builds.
        if np.__version__ != "2.4.6":
            pytest.skip("digest computed with numpy 2.4.6")
        sha = hashlib.sha256()
        for cfg in (TaskGenConfig(), TaskGenConfig(way=10, shot=5, test_shots=15)):
            for index in range(10):
                ep = sample_episode(cfg, index)
                for part in (ep.train, ep.test):
                    sha.update(part.features.tobytes() + part.labels.tobytes())
        assert sha.hexdigest() == (
            "ad5f88bb2214469bfd24262cb200a692252501d607d258da16f4672248078ffc"
        )

    def test_a_sampled_episode_stores_little_beyond_its_features(self):
        # 1,000 10w5s episodes under tracemalloc: 26,145 bytes each, against
        # 25,600 bytes of features.  A one-hot label matrix per episode would
        # add 16,000 bytes and read 42,401.
        cfg = TaskGenConfig(way=10, shot=5, test_shots=15)
        count = 1000
        sample_episode(cfg, 0)
        tracemalloc.start()
        try:
            episodes = [sample_episode(cfg, index) for index in range(count)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        features = sum(
            ep.train.features.nbytes + ep.test.features.nbytes for ep in episodes
        )
        assert held <= features + 2048 * count


FAMILIES = [CFG, TaskGenConfig(way=10, shot=5, test_shots=15, seed=3)]


class TestShape:
    """An episode's way, shot and test_shots are read from its splits."""

    @pytest.mark.parametrize("cfg", FAMILIES, ids=["5w1s", "10w5s"])
    def test_sampled_and_loaded_episodes_read_their_family(self, cfg, tmp_path):
        sampled = [sample_episode(cfg, i) for i in range(2)]
        write_episodes(tmp_path / "e.ep", sampled)
        for ep in sampled + list(load_episodes(tmp_path / "e.ep")):
            assert (ep.way, ep.shot, ep.test_shots) == (
                cfg.way, cfg.shot, cfg.test_shots
            )

    @pytest.mark.parametrize(
        "train, test",
        [([0, 0, 0, 1], [0, 0, 1, 1]), ([0, 0, 1, 1], [0, 0, 0, 1])],
        ids=["train", "test"],
    )
    def test_unbalanced_splits_are_refused(self, train, test):
        # Class counts 3 and 1: M = 4 of a 2-way task would read as k = 2.
        feats = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(ValueError, match="not balanced"):
            Episode(
                EmbeddedSet(feats, np.eye(2)[train]),
                EmbeddedSet(feats, np.eye(2)[test]),
            )

    def test_splits_of_different_label_widths_are_refused(self):
        feats = np.zeros((4, 3))
        with pytest.raises(ValueError, match="label widths"):
            Episode(
                EmbeddedSet(feats, np.eye(2)[[0, 0, 1, 1]]),
                EmbeddedSet(feats, np.eye(4)),
            )


class TestFileFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "episodes.ep"
        episodes = [sample_episode(CFG, i) for i in range(4)]
        write_episodes(path, episodes)
        loaded = list(load_episodes(path))
        assert len(loaded) == 4
        for orig, back in zip(episodes, loaded):
            np.testing.assert_array_equal(orig.train.features, back.train.features)
            np.testing.assert_array_equal(orig.train.labels, back.train.labels)
            np.testing.assert_array_equal(orig.test.features, back.test.features)
            np.testing.assert_array_equal(orig.test.labels, back.test.labels)
            assert (orig.way, orig.shot) == (back.way, back.shot)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ep"
        write_episodes(path, [])
        assert path.read_bytes() == b"COMLN-EP 1 0 0 0 0 0\n"
        assert list(load_episodes(path)) == []

    def test_header_round_trip_fields(self, tmp_path):
        path = tmp_path / "one.ep"
        write_episodes(path, [sample_episode(CFG, 0)])
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"COMLN-EP 1 1 5 1 15 16"

    def test_malformed_magic(self, tmp_path):
        path = tmp_path / "bad.ep"
        path.write_bytes(b"NOT-AN-EP 1 0 0 0 0 0\n")
        with pytest.raises(MalformedHeaderError) as err:
            load_episodes(path)
        assert err.value.offset == 0

    def test_malformed_field_count(self, tmp_path):
        path = tmp_path / "bad.ep"
        path.write_bytes(b"COMLN-EP 1 0 0\n")
        with pytest.raises(MalformedHeaderError):
            load_episodes(path)

    def test_non_integer_header(self, tmp_path):
        path = tmp_path / "bad.ep"
        path.write_bytes(b"COMLN-EP 1 one 5 1 15 16\n")
        with pytest.raises(MalformedHeaderError):
            load_episodes(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.ep"
        write_episodes(path, [sample_episode(CFG, 0)])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(TruncatedFileError) as err:
            list(load_episodes(path))
        assert err.value.offset > 0

    def test_payload_past_the_declared_count(self, tmp_path):
        path = tmp_path / "long.ep"
        write_episodes(path, [sample_episode(CFG, i) for i in range(3)])
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header.replace(b"EP 1 3", b"EP 1 2") + b"\n" + payload)
        with pytest.raises(DimensionInconsistencyError) as err:
            list(load_episodes(path))
        assert err.value.offset == len(header) + 1 + 2 * len(payload) // 3

    def test_unbalanced_labels_hit_dimension_check(self, tmp_path):
        # Header declares k=2 of a 2-way task (M=4) but the label block
        # holds three of class 0 and one of class 1: k*N disagrees with
        # the payload composition.
        path = tmp_path / "skew.ep"
        feats = np.arange(4.0 * 3).astype("<f8").tobytes()
        train_labels = np.array([0, 0, 0, 1], dtype="<u2").tobytes()
        test_feats = np.arange(2.0 * 3).astype("<f8").tobytes()
        test_labels = np.array([0, 1], dtype="<u2").tobytes()
        path.write_bytes(
            b"COMLN-EP 1 1 2 2 1 3\n"
            + feats
            + train_labels
            + test_feats
            + test_labels
        )
        with pytest.raises(DimensionInconsistencyError) as err:
            list(load_episodes(path))
        assert err.value.offset > 0

    def test_label_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.ep"
        feats = np.zeros(2 * 3, dtype="<f8").tobytes()
        labels = np.array([0, 7], dtype="<u2").tobytes()
        path.write_bytes(b"COMLN-EP 1 1 2 1 1 3\n" + feats + labels)
        with pytest.raises(DimensionInconsistencyError):
            list(load_episodes(path))

    def test_writer_rejects_mixed_dimensions(self, tmp_path):
        a = sample_episode(CFG, 0)
        b = sample_episode(TaskGenConfig(way=3, shot=1, test_shots=2, input_dim=4), 0)
        with pytest.raises(DimensionInconsistencyError):
            write_episodes(tmp_path / "mix.ep", [a, b])
        assert not (tmp_path / "mix.ep").exists()
        kept = tmp_path / "kept.ep"
        write_episodes(kept, [b])
        before = kept.read_bytes()
        with pytest.raises(DimensionInconsistencyError):
            write_episodes(kept, [a, sample_episode(CFG, 1), b])
        assert kept.read_bytes() == before

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ep", tmp_path / "b.ep"
        write_episodes(p1, [sample_episode(CFG, i) for i in range(3)])
        write_episodes(p2, [sample_episode(CFG, i) for i in range(3)])
        assert p1.read_bytes() == p2.read_bytes()
