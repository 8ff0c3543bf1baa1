"""Episode supply: synthetic Gaussian-cluster tasks and the COMLN-EP format.

An episode is one N-way k-shot classification problem: a small balanced
train set and a disjoint balanced test set.  The synthetic generator draws
one Gaussian prototype per class and scatters examples around it, which is
enough structure for a linear head on good features to separate.

Episodes can be stored in the COMLN-EP v1 file format: one text header
line ``COMLN-EP 1 <count> <N> <k> <k_test> <d>`` followed, per episode, by
little-endian binary blocks in (train features f64, train label indices
u16, test features f64, test label indices u16) order.  The float payload
round-trips bit-exactly.

Sampled episodes share their labels: every split with the same (way,
examples per class) holds one read-only one-hot matrix, so a write into
sampled labels raises ``ValueError``.  Loaded episodes own their labels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from comln.loss import EmbeddedSet, check_kind


class EpisodeFileError(ValueError):
    """Base class for COMLN-EP parsing failures; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedHeaderError(EpisodeFileError):
    """The header line is not a valid COMLN-EP v1 header."""


class DimensionInconsistencyError(EpisodeFileError):
    """Payload dimensions contradict the header's (N, k, k_test, d)."""


class TruncatedFileError(EpisodeFileError):
    """The file ended before the declared payload was complete."""


@dataclass(frozen=True)
class Episode:
    """One few-shot task: balanced train/test sets over the same classes,
    whose label width is the way and whose rows per class are the shots."""

    train: EmbeddedSet
    test: EmbeddedSet

    def __post_init__(self) -> None:
        if self.train.way != self.test.way:
            raise ValueError("train/test label widths disagree")
        if self.train.dim != self.test.dim:
            raise ValueError("train/test feature dimensions disagree")

    @property
    def way(self) -> int:
        return self.train.way

    @property
    def shot(self) -> int:
        return self.train.count // self.way

    @property
    def test_shots(self) -> int:
        return self.test.count // self.way

    def validate_balance(self) -> None:
        """Check exact per-class balance on both sets, which implies M = k*N."""
        train_counts = self.train.labels.sum(axis=0)
        if not np.all(train_counts == self.shot):
            raise ValueError("train labels are not balanced at shot per class")
        test_counts = self.test.labels.sum(axis=0)
        if not np.all(test_counts == test_counts[0]):
            raise ValueError("test labels are not balanced")


@dataclass(frozen=True)
class TaskGenConfig:
    """Synthetic Gaussian-cluster task family."""

    way: int = 5
    shot: int = 1
    test_shots: int = 15
    input_dim: int = 16
    class_spread: float = 1.0
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_kind("an integer", self, "way", "shot", "test_shots", "input_dim", "seed")
        check_kind("a finite real number", self, "class_spread", "noise_std")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.way < 2:
            raise ValueError("need at least two classes")
        if min(self.shot, self.test_shots, self.input_dim) < 1:
            raise ValueError("shot, test_shots and input_dim must be positive")
        if self.class_spread <= 0 or self.noise_std < 0:
            raise ValueError("class_spread must be positive and noise_std >= 0")


def sample_episode(cfg: TaskGenConfig, episode_index: int) -> Episode:
    """Deterministically generate episode ``episode_index`` of the family.

    Each class gets a prototype drawn from N(0, class_spread^2 I); every
    example is its prototype plus N(0, noise_std^2 I) noise.  Examples are
    laid out class-major, so labels are balanced by construction.  The
    labels are one read-only array shared by every split of the same shape;
    writing into them raises ``ValueError``.
    """
    rng = np.random.default_rng((cfg.seed, episode_index))
    prototypes = rng.normal(size=(cfg.way, cfg.input_dim)) * cfg.class_spread
    train = _scatter(rng, prototypes, cfg.shot, cfg.noise_std)
    test = _scatter(rng, prototypes, cfg.test_shots, cfg.noise_std)
    return Episode(train, test)


def _scatter(rng, prototypes, per_class, noise_std) -> EmbeddedSet:
    way, dim = prototypes.shape
    noise = rng.normal(size=(way * per_class, dim)) * noise_std
    features = np.repeat(prototypes, per_class, axis=0) + noise
    return EmbeddedSet(features, _class_major_labels(way, per_class))


@functools.lru_cache(maxsize=16)
def _class_major_labels(way: int, per_class: int) -> np.ndarray:
    """The one-hot labels of ``per_class`` examples per class laid out
    class-major, built once per shape and shared read-only."""
    labels = np.eye(way)[np.repeat(np.arange(way), per_class)]
    labels.setflags(write=False)
    return labels


def episode_stream(cfg: TaskGenConfig, start: int = 0) -> Iterator[Episode]:
    """Infinite stream of episodes, indexed from ``start``."""
    index = start
    while True:
        yield sample_episode(cfg, index)
        index += 1


def write_episodes(path, episodes: Iterable[Episode]) -> None:
    """Write episodes as a COMLN-EP v1 file, checking every one before
    ``path`` is opened: a rejected list leaves ``path`` as it was."""
    episodes = list(episodes)
    shape = (0, 0, 0, 0)
    if episodes:
        first = episodes[0]
        shape = (first.way, first.shot, first.test_shots, first.train.dim)
    header = f"COMLN-EP 1 {len(episodes)} {' '.join(map(str, shape))}\n".encode()
    offset = len(header)
    for i, ep in enumerate(episodes):
        if (ep.way, ep.shot, ep.test_shots, ep.train.dim) != shape:
            raise DimensionInconsistencyError(
                f"episode {i} dimensions disagree with the first episode", offset
            )
        try:
            ep.validate_balance()
        except ValueError as exc:
            raise DimensionInconsistencyError(f"episode {i}: {exc}", offset) from exc
        offset += (ep.train.count + ep.test.count) * (8 * shape[3] + 2)
    with open(path, "wb") as fh:
        fh.write(header)
        for ep in episodes:
            _write_block(fh, ep.train)
            _write_block(fh, ep.test)


def _write_block(fh, data: EmbeddedSet) -> None:
    fh.write(np.ascontiguousarray(data.features, dtype="<f8").tobytes())
    fh.write(np.argmax(data.labels, axis=1).astype("<u2").tobytes())


def load_episodes(path) -> Iterator[Episode]:
    """Stream episodes back from a COMLN-EP v1 file.

    The header is validated eagerly; episode payloads are read lazily.
    Raises MalformedHeaderError, DimensionInconsistencyError, or
    TruncatedFileError with the byte offset of the offending data.
    """
    fh = open(path, "rb")
    try:
        header = fh.readline()
        fields = header.decode("ascii", errors="replace").split()
        if len(fields) != 7 or fields[0] != "COMLN-EP" or fields[1] != "1":
            raise MalformedHeaderError(
                f"not a COMLN-EP 1 header: {header[:40]!r}", 0
            )
        try:
            count, way, shot, k_test, dim = (int(f) for f in fields[2:])
        except ValueError:
            raise MalformedHeaderError(
                f"non-integer header fields: {header[:40]!r}", 0
            ) from None
        if count < 0 or min(way, shot, k_test, dim) < 0:
            raise MalformedHeaderError("negative header fields", 0)
        if count > 0 and (way < 2 or min(shot, k_test, dim) < 1):
            raise MalformedHeaderError(
                "header dimensions too small for a non-empty file", 0
            )
    except Exception:
        fh.close()
        raise
    return _read_episodes(fh, len(header), count, way, shot, k_test, dim)


def _read_episodes(fh, offset, count, way, shot, k_test, dim):
    try:
        for _ in range(count):
            train, offset = _read_block(fh, offset, way, shot, dim)
            test, offset = _read_block(fh, offset, way, k_test, dim)
            yield Episode(train, test)
        if fh.read(1):
            raise DimensionInconsistencyError(
                f"data past the {count} episodes the header declares", offset
            )
    finally:
        fh.close()


def _read_block(fh, offset, way, per_class, dim):
    rows = way * per_class
    feats_bytes = rows * dim * 8
    raw = fh.read(feats_bytes)
    if len(raw) != feats_bytes:
        raise TruncatedFileError(
            f"expected {feats_bytes} feature bytes, got {len(raw)}", offset
        )
    features = np.frombuffer(raw, dtype="<f8").reshape(rows, dim)
    offset += feats_bytes
    label_bytes = rows * 2
    raw = fh.read(label_bytes)
    if len(raw) != label_bytes:
        raise TruncatedFileError(
            f"expected {label_bytes} label bytes, got {len(raw)}", offset
        )
    indices = np.frombuffer(raw, dtype="<u2")
    if indices.max(initial=0) >= way:
        raise DimensionInconsistencyError(
            f"label index {indices.max()} outside {way} classes", offset
        )
    counts = np.bincount(indices, minlength=way)
    if not np.all(counts == per_class):
        raise DimensionInconsistencyError(
            f"labels are not balanced at {per_class} per class "
            f"(counts {counts.tolist()}), so k*N does not match the block",
            offset,
        )
    offset += label_bytes
    labels = np.eye(way)[indices]
    return EmbeddedSet(features.astype(np.float64), labels), offset
