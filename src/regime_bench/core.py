"""Uniform 5-minute CGM episodes: CSV ingestion, resampling, partitioning, model inputs,
the one mask-over-truth split, and the run-length codec shared by masks, gaps and
protocol windows."""

from __future__ import annotations

import math
import struct
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from functools import partial

import numpy as np

from . import formats
from .errors import DimensionError, IntegrityError, OrderingError, ParseError

GRID_MINUTES = 5
SAMPLES_PER_DAY = 288
GLUCOSE_MIN = 20.0  # the sensor range, mg/dL
GLUCOSE_MAX = 500.0
EUGLYCEMIC_LOW = 70.0  # the euglycemic band, mg/dL: below it is hypoglycemia
EUGLYCEMIC_HIGH = 140.0

CGM_HEADER = ["patient_id", "timestamp", "glucose", "carbs", "bolus", "basal"]
INPUT_HEADER = ["t", "masked_glucose", "carbs", "bolus", "basal", "sin_t", "cos_t"]

_EPOCH = datetime(1970, 1, 1)

MERGE_ROWS = 1 << 14  # rows merged into grid cells at a time; a longer cell grows its chunk


@dataclass(frozen=True, eq=False)
class Episode:
    """One contiguous, uniformly sampled multichannel trace.

    glucose is NaN exactly where observed == 0. exog columns are
    (carbs, bolus, basal). start_minute is absolute minutes on the 5-min
    grid; start_time_of_day derives from it.
    """

    patient_id: str
    episode_id: int
    start_minute: int
    glucose: np.ndarray
    exog: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        glucose = np.ascontiguousarray(self.glucose, dtype=np.float64)
        exog = np.ascontiguousarray(self.exog, dtype=np.float64)
        observed = np.ascontiguousarray(self.observed, dtype=np.uint8)
        if glucose.ndim != 1 or glucose.size < 1:
            raise DimensionError("episode needs a 1-D glucose vector with T >= 1")
        t = glucose.size
        if exog.shape != (t, 3):
            raise DimensionError(f"exog must be ({t}, 3), got {exog.shape}")
        if observed.shape != (t,):
            raise DimensionError(f"observed must be ({t},), got {observed.shape}")
        if self.start_minute % GRID_MINUTES != 0:
            raise DimensionError("start_minute must sit on the 5-minute grid")
        missing = np.isnan(glucose)
        if not np.array_equal(missing, observed == 0):
            raise IntegrityError("observed flags must match NaN positions in glucose")
        present = glucose[~missing]
        if present.size and (present.min() < GLUCOSE_MIN or present.max() > GLUCOSE_MAX):
            raise IntegrityError(
                f"glucose outside sensor range [{GLUCOSE_MIN:g}, {GLUCOSE_MAX:g}] mg/dL"
            )
        for arr in (glucose, exog, observed):
            arr.flags.writeable = False
        object.__setattr__(self, "glucose", glucose)
        object.__setattr__(self, "exog", exog)
        object.__setattr__(self, "observed", observed)

    @property
    def T(self) -> int:
        return self.glucose.size

    @property
    def start_time_of_day(self) -> int:
        return self.start_minute % 1440

    def minute_at(self, t: int) -> int:
        return self.start_minute + GRID_MINUTES * t

    def hour_at(self, t: int) -> int:
        """Hour of day (0-23) of grid index t."""
        return (self.minute_at(t) % 1440) // 60

    def day_at(self, t: int) -> int:
        """Absolute day index of grid index t."""
        return self.minute_at(t) // 1440

    def fully_observed(self) -> bool:
        return bool(self.observed.all())


def episodes_equal(a: Episode, b: Episode) -> bool:
    return (
        a.patient_id == b.patient_id
        and a.episode_id == b.episode_id
        and a.start_minute == b.start_minute
        and np.array_equal(a.glucose, b.glucose, equal_nan=True)
        and np.array_equal(a.exog, b.exog)
        and np.array_equal(a.observed, b.observed)
    )


def bits_to_runs(bits: np.ndarray) -> list[tuple[int, int]]:
    """Run-length encode the masked (0) stretches as (start, length) pairs."""
    hidden = np.concatenate(([0], np.asarray(bits) == 0, [0]))
    edges = np.flatnonzero(np.diff(hidden)).tolist()  # run starts and ends alternate
    return [(s, e - s) for s, e in zip(edges[::2], edges[1::2])]


def split_mask(bits, observed) -> tuple[np.ndarray, np.ndarray]:
    """Split a mask over ground truth into boolean (retained, scored) index sets.

    retained is where the mask keeps the value (bit 1); a mask may not retain an
    index the truth never observed. scored is hidden & observed. An index the
    truth never observed is in neither set: it is imputed but never scored.
    """
    retained = np.asarray(bits) != 0
    observed = np.asarray(observed, dtype=bool)
    if retained.shape != observed.shape:
        raise DimensionError(f"mask length {retained.size} != episode length {observed.size}")
    if np.any(retained & ~observed):
        raise IntegrityError("mask retains an index with no ground-truth observation")
    return retained, ~retained & observed


def runs_to_bits(T: int, runs) -> np.ndarray:
    """Retention bits of length T with every (start, length) run set to 0."""
    bits = np.ones(T, dtype=np.uint8)
    for start, length in runs:
        if length < 1:
            raise DimensionError(f"run ({start}, {length}) has non-positive length")
        if start < 0 or start + length > T:
            raise DimensionError(f"run ({start}, {length}) exceeds mask length {T}")
        bits[start : start + length] = 0
    return bits


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    try:
        return float(int(text))
    except (ValueError, OverflowError):  # not an integer, or too large for a float
        pass
    try:
        stamp = text.replace("Z", "+00:00") if text.endswith("Z") else text
        dt = datetime.fromisoformat(stamp)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}") from exc
    # timestamps are taken as local wall-clock; drop any offset rather than convert
    dt = dt.replace(tzinfo=None)
    return (dt - _EPOCH).total_seconds() / 60.0


def _parse_float(text: str, field: str, default: float = 0.0) -> float:
    text = text.strip()
    if not text:
        return default
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad {field} value {text!r}") from exc


def ingest_csv(path, partition_gap_minutes: int) -> list[Episode]:
    """Read a CGM CSV, resample to the 5-min grid and partition into episodes.

    A new episode starts whenever consecutive glucose observations are more
    than partition_gap_minutes apart. Exogenous channels are zero-filled on
    grid points without an event. A file in canonical form is read as
    columns, and its episodes are cached by formats.read_columns as one
    block, served again once _block_episodes' checks pass; the row reader
    reads every other file and raises every error. The episodes are
    read-only views of one block (see _partition).
    """
    if partition_gap_minutes <= 0:
        raise ParseError("partition_gap_minutes must be positive")
    finish = formats.Finish(__file__, (partition_gap_minutes,),
                            partial(_columns_block, partition_gap_minutes),
                            partial(_block_episodes, partition_gap_minutes))
    episodes = formats.read_columns(path, CGM_HEADER, "tiffff", finish)
    if episodes is None:
        episodes = _episodes(*_partition(_read_rows(path), partition_gap_minutes))
    return episodes


def _read_rows(path) -> dict[str, np.ndarray]:
    """Per patient, its (minute, glucose, carbs, bolus, basal) rows in file order.

    The row reader: it reads any valid file and raises each error with the
    line that caused it. glucose is NaN for event-only rows.
    """
    # per patient, flat in file order: (minute, glucose, carbs, bolus, basal) per row
    rows: defaultdict[str, array] = defaultdict(lambda: array("d"))

    def parse(row):
        patient = row[0].strip()
        if not patient:
            raise ParseError("empty patient_id")
        minute = _parse_timestamp(row[1])
        glucose = _parse_float(row[2], "glucose", default=math.nan)
        if row[2].strip() and not (GLUCOSE_MIN <= glucose <= GLUCOSE_MAX):
            raise ParseError(f"glucose {glucose} outside [{GLUCOSE_MIN:g}, {GLUCOSE_MAX:g}]")
        carbs = _parse_float(row[3], "carbs")
        bolus = _parse_float(row[4], "bolus")
        basal = _parse_float(row[5], "basal")
        if not (math.isfinite(carbs) and math.isfinite(bolus) and math.isfinite(basal)):
            raise ParseError("non-finite exogenous value")
        if carbs < 0 or bolus < 0 or basal < 0:
            raise ParseError("negative exogenous value")
        table = rows[patient]
        if table and minute < table[-5]:  # the patient's previous minute
            raise OrderingError(f"timestamp decreases within patient {patient!r}")
        table.extend((minute, glucose, carbs, bolus, basal))

    formats.read_csv(path, CGM_HEADER, parse)
    return {patient: np.frombuffer(table).reshape(-1, 5) for patient, table in rows.items()}


def _read_columns(path) -> dict[str, np.ndarray] | None:
    """The rows of _read_rows from a canonical file, or None to leave the file to it."""
    read = formats.read_columns(path, CGM_HEADER, "tiffff")
    return None if read is None else _column_rows(*read)


def _column_rows(table, runs) -> dict[str, np.ndarray] | None:
    """The rows of _read_rows from read_columns' (table, runs); None to leave the file to it.

    None also stands for every check that fails, so that the row reader
    raises the error and names the line.
    """
    (patients,) = runs
    glucose, exog = table[:, 1], table[:, 2:]
    exog[np.isnan(exog)] = 0.0  # an empty exogenous field reads as 0
    # a missing glucose value is NaN, which compares false
    if (np.any(glucose < GLUCOSE_MIN) or np.any(glucose > GLUCOSE_MAX)
            or not np.isfinite(exog).all() or np.any(exog < 0)):
        return None
    ends = [start for _, start in patients[1:]] + [len(table)]
    parts = defaultdict(list)
    for (patient, lo), hi in zip(patients, ends):
        parts[patient].append(table[lo:hi])
    rows = {}
    for patient, runs in parts.items():
        own = runs[0] if len(runs) == 1 else np.concatenate(runs)
        if np.any(own[1:, 0] < own[:-1, 0]):  # a decreasing timestamp
            return None
        rows[patient] = own
    return rows


def _columns_block(partition_gap_minutes: int, table, runs):
    """read_columns' make: the (doc, block) of _partition for a canonical file, or None."""
    rows = _column_rows(table, runs)
    if rows is None:
        return None
    spans, block = _partition(rows, partition_gap_minutes)
    return {"episodes": spans}, block


def _last_per_cell(cell: np.ndarray, values: np.ndarray, keep: np.ndarray, fill: float):
    """Per cell, the value of its last row with keep set, else fill (cell never decreases)."""
    out = np.full(cell[-1] + 1, fill)
    rows = np.flatnonzero(keep)
    last = rows[np.diff(cell[rows], append=cell[-1] + 1) > 0]
    out[cell[last]] = values[last]
    return out


def _merge_cells(rows: np.ndarray) -> np.ndarray:
    """One patient's (n, 5) (minute, glucose, carbs, bolus, basal) rows merged into grid cells.

    Returns (grid, glucose, carbs, bolus, basal) per cell that holds a row,
    grid being the cell's index on the 5-minute grid. The cells overwrite the
    leading rows of rows, which must be writable, and the result is a view of
    them. The rows are merged MERGE_ROWS at a time, each chunk cut where a
    cell starts, so that no temporary spans all the rows. A chunk's cells are
    no more than its rows, so they end before its first unread row, and each
    column is written only once its merged values are computed from the chunk.
    """
    n = len(rows)
    lo, filled, size = 0, 0, MERGE_ROWS
    while lo < n:
        hi = min(lo + size, n)
        # round-half-up keeps tie handling deterministic across platforms; grid indices
        # stay floats, which hold any timestamp the reader accepts where an int64 may overflow
        grid = np.floor(rows[lo:hi, 0] / GRID_MINUTES + 0.5)
        # timestamps never decrease, so each grid point's rows form one run, numbered by
        # cell; a chunk starts with a cell, since the one before it ended with one
        first = np.diff(grid, prepend=-np.inf) > 0
        if hi < n:  # the last cell may go on past the chunk: leave it to the next one
            cut = np.flatnonzero(first)[-1]
            if cut == 0:  # one cell fills the chunk
                size *= 2
                continue
            hi, grid, first = lo + cut, grid[:cut], first[:cut]
        cell = np.cumsum(first) - 1
        _, glucose, carbs, bolus, basal = rows[lo:hi].T
        out = rows[filled : filled + cell[-1] + 1]
        out[:, 0] = grid[first]
        # a later reading wins a collision, events accumulate, a later non-zero basal wins
        out[:, 1] = _last_per_cell(cell, glucose, ~np.isnan(glucose), np.nan)
        out[:, 2] = np.bincount(cell, carbs)
        out[:, 3] = np.bincount(cell, bolus)
        out[:, 4] = _last_per_cell(cell, basal, basal != 0, 0.0)
        lo, filled, size = hi, filled + len(out), MERGE_ROWS
    return rows[:filled]


def _partition(rows: dict[str, np.ndarray], partition_gap_minutes: int):
    """Each patient's rows, in patient order, merged into grid cells and cut into episodes.

    The rows, which must be writable, become the cells (see _merge_cells).
    Returns the episodes' ``[patient_id, episode_id, start_minute, offset, T]``
    spans and one float64 block of 4 * N values, N being their total T: every
    glucose value, then every (carbs, bolus, basal) row; an episode's are
    those from its offset to its offset + T in each part. Grid points with
    no cell read NaN glucose and zero exogenous values. The block is filled
    in place, with no array per episode.
    """
    spans, pieces, n = [], [], 0
    for patient in sorted(rows):
        cells = _merge_cells(rows[patient])
        for episode_id, (lo, hi) in enumerate(_cuts(cells, partition_gap_minutes)):
            T = int(cells[hi - 1, 0] - cells[lo, 0]) + 1
            spans.append([patient, episode_id, int(cells[lo, 0]) * GRID_MINUTES, n, T])
            pieces.append(cells[lo:hi])
            n += T
    block = np.empty(4 * n)
    glucose, exog = block[:n], block[n:].reshape(n, 3)
    glucose[:], exog[:] = np.nan, 0.0
    for (_, _, _, offset, _), piece in zip(spans, pieces):
        t = offset + (piece[:, 0] - piece[0, 0]).astype(np.intp)
        glucose[t] = piece[:, 1]
        exog[t] = piece[:, 2:]
    return spans, block


def _cuts(cells: np.ndarray, partition_gap_minutes: int) -> list[tuple[int, int]]:
    """The (lo, hi) cell ranges of one patient's episodes: from an observation to the
    next one further than the gap away, which starts the next episode."""
    grid = cells[:, 0]
    obs = np.flatnonzero(~np.isnan(cells[:, 1]))
    if obs.size == 0:
        return []
    # split where consecutive observations are further apart than the threshold
    apart = np.diff(grid[obs])
    apart *= GRID_MINUTES  # in place: no second temporary as large as the cells
    split = apart > partition_gap_minutes
    del apart
    return list(zip(obs[np.append(True, split)].tolist(),
                    (obs[np.append(split, True)] + 1).tolist()))


def _episodes(spans, block: np.ndarray) -> list[Episode]:
    """The episodes of _partition's spans, as read-only views of its block."""
    n = block.size // 4
    glucose, exog = block[:n], block[n:].reshape(n, 3)
    block.flags.writeable = False
    return [Episode(patient, episode_id, start, glucose[lo : lo + T], exog[lo : lo + T],
                    ~np.isnan(glucose[lo : lo + T]))
            for patient, episode_id, start, lo, T in spans]


def _block_episodes(partition_gap_minutes: int, doc: dict, block: np.ndarray):
    """read_columns' load: the episodes of a (doc, block) from _columns_block, or None
    when it fails a check.

    Checked: each span is ``[patient_id, episode_id, start_minute, offset,
    T]``, a non-empty id and four integers; patients come in sorted order,
    each with ids 0, 1, ...; the offsets increase and cover the block, and
    every T is at least 1; within each patient each episode starts more
    than the gap after the previous one's last sample; glucose is present
    at each episode's first and last sample, and inside an episode no two
    consecutive observations are more than the gap apart; exogenous values
    are finite and >= 0; and every Episode invariant holds, which puts each
    start on the 5-minute grid and glucose in [20, 500].
    """
    spans = doc.get("episodes")
    if block.ndim != 1 or block.size % 4 or not isinstance(spans, list):
        return None
    n = block.size // 4
    glucose, exog = block[:n], block[n:]
    end, last = 0, None  # where the spans so far end, and the last of them
    for span in spans:
        if not (isinstance(span, list) and len(span) == 5 and isinstance(span[0], str)
                and span[0] and all(type(v) is int for v in span[1:])):
            return None
        patient, episode_id, start, offset, T = span
        same = last is not None and last[0] == patient
        if (offset != end or not 1 <= T <= n - offset
                or episode_id != (last[1] + 1 if same else 0)
                or (not same and last is not None and patient <= last[0])
                or (same and start - last[2] - GRID_MINUTES * (last[4] - 1)
                    <= partition_gap_minutes)
                or math.isnan(glucose[offset]) or math.isnan(glucose[offset + T - 1])):
            return None
        end, last = offset + T, span
    if end != n or not np.isfinite(exog).all() or np.any(exog < 0):
        return None
    # each missing run lies inside one episode, since every episode's edges are present
    missing = np.isnan(glucose)
    edges = np.flatnonzero(missing[1:] != missing[:-1])
    if np.any((edges[1::2] - edges[::2] + 1) * GRID_MINUTES > min(partition_gap_minutes, 2**62)):
        return None
    try:
        return _episodes(spans, block)
    except (DimensionError, IntegrityError):
        return None


def export_csv(episodes: list[Episode], path, gapped=None) -> None:
    """Write episodes back to the standard CGM CSV (integer-minute timestamps).

    gapped, if given, is (path, masks): one mask's retention bits per
    episode, in the order of episodes, each paired with its episode as
    split_mask pairs them. The episodes are then also written to that path
    as the masks show them, glucose blank where a mask is 0, in the same
    pass: each episode is formatted once for both files, and the text of
    one episode is held at a time. Every pair is checked before either file
    is opened; synth.write_fixture runs masks.apply_mask's checks first.
    """
    if gapped is None:
        chunks = ("".join(_cgm_parts(ep)) for ep in sorted(episodes, key=_episode_key))
        formats.write_lines(path, CGM_HEADER, chunks)
        return
    gapped_path, bits = gapped
    pairs = sorted(zip(episodes, bits, strict=True), key=lambda pair: _episode_key(pair[0]))
    hidden = [np.flatnonzero(~split_mask(keep, ep.observed)[0]).tolist() for ep, keep in pairs]
    with formats.line_file(path, CGM_HEADER) as truth, \
            formats.line_file(gapped_path, CGM_HEADER) as shown:
        for (ep, _), blank in zip(pairs, hidden):
            parts = _cgm_parts(ep)
            truth.write("".join(parts))
            for t in blank:
                parts[5 * t + 3] = ""
            shown.write("".join(parts))


def _episode_key(ep: Episode) -> tuple[str, int]:
    return ep.patient_id, ep.episode_id


def _cgm_parts(ep: Episode) -> list[str]:
    """One episode's CSV rows as a flat list of texts, five a row: the patient and a
    comma, the minute, a comma, the glucose and the exogenous tail with the line end.

    Row t's glucose is parts[5 * t + 3]: its repr, or "" where it is NaN.
    """
    T = ep.T
    parts = [formats.quote(ep.patient_id) + ",", "", ",", "", ""] * T
    parts[1::5] = map(str, range(ep.start_minute, ep.minute_at(T), GRID_MINUTES))
    parts[3::5] = map(repr, ep.glucose.tolist())
    for t in np.flatnonzero(np.isnan(ep.glucose)).tolist():
        parts[5 * t + 3] = ""
    # each distinct exogenous row is formatted once, looked up by its bytes, so that -0.0
    # and every NaN keep their own text
    rows = ep.exog.view("V24").ravel().tolist()  # three float64s a row
    tails = {row: ",{!r},{!r},{!r}\r\n".format(*struct.unpack("=3d", row)) for row in set(rows)}
    parts[4::5] = map(tails.__getitem__, rows)
    return parts


def time_encoding(t, start_time_of_day: int = 0) -> np.ndarray:
    """Sinusoidal embedding of the absolute time of day at grid index (or indices) t.

    Returns an array of shape ``np.shape(t) + (2,)`` holding (sin, cos).
    """
    t = np.asarray(t)
    if np.any(t < 0):
        raise DimensionError("grid index must be >= 0")
    i = ((start_time_of_day // GRID_MINUTES + t) % SAMPLES_PER_DAY) / SAMPLES_PER_DAY
    angle = 2.0 * np.pi * i
    return np.stack([np.sin(angle), np.cos(angle)], axis=-1)


def build_inputs(episode: Episode, mask) -> np.ndarray:
    """Per-step model inputs as a (T, 6) array in ``INPUT_HEADER[1:]`` order.

    Columns: masked glucose (0 where hidden), carbs, bolus, basal, sin_t, cos_t.
    """
    retained, _ = split_mask(getattr(mask, "bits", mask), episode.observed)
    masked = np.where(retained, episode.glucose, 0.0)
    clock = time_encoding(np.arange(episode.T), episode.start_time_of_day)
    return np.column_stack([masked, episode.exog, clock])


def export_inputs(episode: Episode, mask, path) -> None:
    """Serialize build_inputs for one episode to CSV."""
    lines = (f"{t},{','.join(map(repr, row))}\r\n"
             for t, row in enumerate(build_inputs(episode, mask).tolist()))
    formats.write_lines(path, INPUT_HEADER, lines)
