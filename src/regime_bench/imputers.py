"""Classical baselines and the file interface for external model outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .core import Episode, split_mask
from .errors import CoverageError, EmptyEpisodeError, IntegrityError, ParseError
from .masks import Mask

EXTERNAL_HEADER = ["patient_id", "episode_id", "t", "value", "method"]
RETAINED_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class Imputation:
    """A full-length imputed series for one episode."""

    values: np.ndarray
    method: str
    episode_ref: tuple[str, int]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _fill(episode: Episode, mask: Mask, method: str, fill) -> Imputation:
    """Truth at the retained indices, ``fill(hidden, retained, values)`` at the hidden ones.

    hidden and retained are index arrays in increasing order and values the
    truth at retained, in the argument order of np.interp; a builtin imputer
    needs at least one retained index.
    """
    bits, _ = split_mask(mask.bits, episode.observed)
    retained, hidden = np.flatnonzero(bits), np.flatnonzero(~bits)
    if not retained.size:
        raise EmptyEpisodeError("imputer needs at least one retained observation")
    values = episode.glucose.copy()
    values[hidden] = fill(hidden, retained, episode.glucose[retained])
    return Imputation(values, method, (episode.patient_id, episode.episode_id))


def impute_mean(episode: Episode, mask: Mask) -> Imputation:
    return _fill(episode, mask, "mean", lambda hidden, retained, values: np.mean(values))


def impute_median(episode: Episode, mask: Mask) -> Imputation:
    return _fill(episode, mask, "median", lambda hidden, retained, values: np.median(values))


def impute_locf(episode: Episode, mask: Mask) -> Imputation:
    """Last retained observation carried forward; a leading gap takes the next one."""
    return _fill(episode, mask, "locf", lambda hidden, retained, values: values[
        np.maximum(np.searchsorted(retained, hidden, side="right") - 1, 0)])


def impute_lerp(episode: Episode, mask: Mask) -> Imputation:
    """Linear interpolation between bracketing retained observations."""
    # np.interp clamps to the nearest retained value at the boundaries
    return _fill(episode, mask, "lerp", np.interp)


BUILTIN_IMPUTERS = {
    "mean": impute_mean,
    "median": impute_median,
    "locf": impute_locf,
    "lerp": impute_lerp,
}


def write_imputations_csv(imputations: list[Imputation], path) -> None:
    imputations = sorted(imputations, key=lambda i: i.episode_ref)
    formats.write_lines(path, EXTERNAL_HEADER, map(_imputation_lines, imputations))


def _imputation_lines(imp: Imputation) -> str:
    head = f"{formats.quote(imp.episode_ref[0])},{imp.episode_ref[1]},"
    method = formats.quote(imp.method)
    return "".join(f"{head}{t},{v!r},{method}\r\n" for t, v in enumerate(imp.values.tolist()))


def _read_external_rows(path, lengths: dict[tuple[str, int], int]):
    """Parse an external file into (method, {episode: (t, values)}).

    lengths gives T for the episodes being scored; their rows must have t in
    [0, T). Rows for other episodes are kept unchecked. A repeated
    (episode, t) row is rejected everywhere.
    """
    series: dict[tuple[str, int], dict[int, float]] = {}
    methods: set[str] = set()
    key = rows = T = None  # files list each episode in one block; cache its look-ups

    def parse(row):
        nonlocal key, rows, T
        try:
            row_key = (row[0], int(row[1]))
            t = int(row[2])
            value = float(row[3])
        except ValueError as exc:
            raise ParseError("bad imputation row") from exc
        methods.add(row[4].strip())
        if row_key != key:
            key, rows, T = row_key, series.setdefault(row_key, {}), lengths.get(row_key)
        if t in rows:
            raise ParseError(f"repeats t={t} for episode {key[0]}/{key[1]}")
        if T is not None and not 0 <= t < T:
            raise CoverageError(f"t={t} outside [0, {T}) for episode {key[0]}/{key[1]}")
        rows[t] = value

    formats.read_csv(path, EXTERNAL_HEADER, parse)
    if len(methods) != 1:
        raise ParseError(f"{path}: expected exactly one method per file, found {sorted(methods)}")
    return methods.pop(), {key: (np.array([*rows]), np.array([*rows.values()]))
                           for key, rows in series.items()}


def load_external(path, pairs: list[tuple[Episode, Mask]]) -> list[Imputation]:
    """Load an external imputation file and validate it against ground truth.

    pairs: [(Episode, Mask), ...], the episodes to score and their masks;
    the result follows their order. Every episode must be fully covered,
    and values at retained indices must echo the observed glucose within 1e-6.
    """
    lengths = {(ep.patient_id, ep.episode_id): ep.T for ep, _ in pairs}
    columns = _load_external_columns(path, pairs, lengths)
    if columns is not None:
        return columns
    return _checked(path, *_read_external_rows(path, lengths), pairs)


def _checked(path, method: str, series, pairs: list[tuple[Episode, Mask]]) -> list[Imputation]:
    """Each scored episode's imputation, after the checks that follow either reader.

    series maps each episode to its (t, values), t distinct and, for the
    episodes in pairs, within [0, T).
    """
    out = []
    for ep, mask in pairs:
        key = (ep.patient_id, ep.episode_id)
        if key not in series:
            raise CoverageError(f"{path}: no rows for episode {key[0]}/{key[1]}")
        t, values = series[key]
        if t.size < ep.T:
            missing = np.setdiff1d(np.arange(ep.T), t).astype(int).tolist()
            raise CoverageError(
                f"{path}: episode {key[0]}/{key[1]} missing indices {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        values = values[np.argsort(t)]  # t holds each of 0..T-1 once
        if not np.isfinite(values).all():
            raise IntegrityError(f"{path}: non-finite value in episode {key[0]}/{key[1]}")
        retained, _ = split_mask(mask.bits, ep.observed)
        drift = np.abs(values[retained] - ep.glucose[retained])
        if drift.size and drift.max() > RETAINED_TOLERANCE:
            t_bad = int(np.flatnonzero(retained)[int(np.argmax(drift))])
            raise IntegrityError(
                f"{path}: episode {key[0]}/{key[1]} alters retained value at t={t_bad} "
                f"by {drift.max():.3g}"
            )
        out.append(Imputation(values, method, key))
    return out


def _load_external_columns(path, pairs: list[tuple[Episode, Mask]],
                           lengths: dict[tuple[str, int], int]) -> list[Imputation] | None:
    """load_external's result from a canonical file, or None to leave the file to its rows.

    None stands for each file on which the row reader raises and names the
    line: more than one method, an empty value field, an episode split into
    blocks or repeating a t, a scored episode's t outside [0, T). Every other
    file goes on to the checks that follow either reader.
    """
    read = formats.read_columns(path, EXTERNAL_HEADER, "tiift")
    if read is None:
        return None
    table, (patients, methods) = read
    episode, t, value = table.T
    if len(methods) != 1 or np.isnan(value).any():  # NaN stands for an empty value field
        return None
    # an episode's block starts wherever the patient or the episode id changes; flags and a
    # sorted diff stand in for np.union1d and np.unique, which load numpy.ma (about 13 ms)
    patient_starts = [start for _, start in patients]
    is_start = np.zeros(len(table), dtype=bool)
    is_start[patient_starts] = True
    is_start[1:] |= episode[1:] != episode[:-1]
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], len(table))
    owners = np.searchsorted(patient_starts, starts, side="right") - 1
    series = {}
    for lo, hi, owner in zip(starts.tolist(), ends.tolist(), owners.tolist()):
        key = (patients[owner][0], int(episode[lo]))
        times, T = t[lo:hi], lengths.get(key)
        if (key in series or (np.diff(np.sort(times)) == 0).any()
                or T is not None and (times.min() < 0 or times.max() >= T)):
            return None
        series[key] = (times, value[lo:hi])
    return _checked(path, methods[0][0], series, pairs)
