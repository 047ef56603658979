"""NSL-KDD data handling: schema, parsing, label granularities, folds, sampling.

Feature indices are 1-based everywhere in this package (CLI flags, reports,
serialized subsets) so they line up with the standard 41-column NSL-KDD
connection-record layout.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .config import ATTACK23, CATEGORY5, GRANULARITIES
from .errors import DataError, ParseError, SamplingError, SchemaError, UnknownLabelError

CONTINUOUS = "continuous"
DISCRETE = "discrete"

NORMAL = "normal"
CATEGORIES = ("Dos", "Probe", "R2L", "U2R")

# The 41 NSL-KDD connection features in file order.
_NSLKDD_FEATURES = (
    ("duration", CONTINUOUS),
    ("protocol-type", DISCRETE),
    ("service", DISCRETE),
    ("flag", DISCRETE),
    ("src-bytes", CONTINUOUS),
    ("dst-bytes", CONTINUOUS),
    ("land", DISCRETE),
    ("wrong-fragment", CONTINUOUS),
    ("urgent", CONTINUOUS),
    ("hot", CONTINUOUS),
    ("num-failed-logins", CONTINUOUS),
    ("logged-in", DISCRETE),
    ("num-compromised", CONTINUOUS),
    ("root-shell", CONTINUOUS),
    ("su-attempted", CONTINUOUS),
    ("num-root", CONTINUOUS),
    ("num-file-creations", CONTINUOUS),
    ("num-shells", CONTINUOUS),
    ("num-access-files", CONTINUOUS),
    ("num-outbound-cmds", CONTINUOUS),
    ("is-host-login", DISCRETE),
    ("is-guest-login", DISCRETE),
    ("count", CONTINUOUS),
    ("srv-count", CONTINUOUS),
    ("serror-rate", CONTINUOUS),
    ("srv-serror-rate", CONTINUOUS),
    ("rerror-rate", CONTINUOUS),
    ("srv-rerror-rate", CONTINUOUS),
    ("same-srv-rate", CONTINUOUS),
    ("diff-srv-rate", CONTINUOUS),
    ("srv-diff-host-rate", CONTINUOUS),
    ("dst-host-count", CONTINUOUS),
    ("dst-host-srv-count", CONTINUOUS),
    ("dst-host-same-srv-rate", CONTINUOUS),
    ("dst-host-diff-srv-rate", CONTINUOUS),
    ("dst-host-same-src-port-rate", CONTINUOUS),
    ("dst-host-srv-diff-host-rate", CONTINUOUS),
    ("dst-host-serror-rate", CONTINUOUS),
    ("dst-host-srv-serror-rate", CONTINUOUS),
    ("dst-host-rerror-rate", CONTINUOUS),
    ("dst-host-srv-rerror-rate", CONTINUOUS),
)

# Attack type -> coarse category, covering the 22 attack types of the
# standard train split.
ATTACK_CATEGORY = {
    "back": "Dos",
    "land": "Dos",
    "neptune": "Dos",
    "pod": "Dos",
    "smurf": "Dos",
    "teardrop": "Dos",
    "ipsweep": "Probe",
    "nmap": "Probe",
    "portsweep": "Probe",
    "satan": "Probe",
    "ftp_write": "R2L",
    "guess_passwd": "R2L",
    "imap": "R2L",
    "multihop": "R2L",
    "phf": "R2L",
    "spy": "R2L",
    "warezclient": "R2L",
    "warezmaster": "R2L",
    "buffer_overflow": "U2R",
    "loadmodule": "U2R",
    "perl": "U2R",
    "rootkit": "U2R",
}

# Per-attack record counts of the reference 62,984-record evaluation sample
# (29,540 attack records; the remaining 33,444 are normal, i.e. 53%).
REFERENCE_ATTACK_COUNTS = {
    "back": 502,
    "buffer_overflow": 17,
    "ftp_write": 4,
    "guess_passwd": 27,
    "imap": 6,
    "ipsweep": 1814,
    "land": 6,
    "loadmodule": 3,
    "multihop": 5,
    "neptune": 20750,
    "nmap": 743,
    "perl": 1,
    "phf": 3,
    "pod": 87,
    "portsweep": 1489,
    "rootkit": 7,
    "satan": 1829,
    "smurf": 1327,
    "spy": 1,
    "teardrop": 437,
    "warezclient": 469,
    "warezmaster": 13,
}
REFERENCE_NORMAL_COUNT = 33444


def reference_sample_counts() -> dict[str, int]:
    """Label histogram of the reference evaluation sample (62,984 records)."""
    counts = dict(REFERENCE_ATTACK_COUNTS)
    counts[NORMAL] = REFERENCE_NORMAL_COUNT
    return counts


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered (name, kind) pairs; kind is ``continuous`` or ``discrete``."""

    features: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for name, kind in self.features:
            if kind not in (CONTINUOUS, DISCRETE):
                raise SchemaError(f"feature {name!r} has invalid kind {kind!r}")
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names in schema")

    def __len__(self) -> int:
        return len(self.features)

    def name(self, index: int) -> str:
        """Feature name at a 1-based index."""
        return self.features[index - 1][0]

    def kind(self, index: int) -> str:
        return self.features[index - 1][1]

    @property
    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, k) in enumerate(self.features, 1) if k == CONTINUOUS)

    def all_discrete(self) -> "FeatureSchema":
        """Same feature names with every kind set to discrete."""
        return FeatureSchema(tuple((name, DISCRETE) for name, _ in self.features))

    def to_payload(self) -> list[list[str]]:
        return [[name, kind] for name, kind in self.features]

    @classmethod
    def from_payload(cls, payload) -> "FeatureSchema":
        return cls(tuple((str(n), str(k)) for n, k in payload))


NSLKDD_SCHEMA = FeatureSchema(_NSLKDD_FEATURES)


def json_text(payload) -> str:
    """Text of a JSON file people read or edit: sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_line(payload) -> str:
    """Text of a machine record (model, sample, fold plan): sorted keys, one line.

    Without an indent, ``json.dumps`` runs the C encoder.
    """
    return json.dumps(payload, sort_keys=True) + "\n"


def check_discrete(ds: "Dataset", noun: str) -> None:
    """Raise SchemaError naming the continuous features; ``noun`` names the caller."""
    bad = [name for name, kind in ds.schema.features if kind != DISCRETE]
    if bad:
        raise SchemaError(
            f"{noun} requires a fully discrete dataset; continuous features: {', '.join(bad)}"
        )


def encode(values) -> tuple[np.ndarray, tuple]:
    """Integer codes of discrete values and their sorted vocabulary.

    ``vocab[codes[i]] == values[i]``; vocabulary entries are Python scalars.
    Every dataset takes its codes from here, once per column, when it is built.
    Texts that all spell non-negative integers without leading zeros sort by
    value, as the int bins that a CSV of them was written from.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "OU":
        vocab, codes = np.unique(values, return_inverse=True)
        return codes.astype(np.int64), tuple(vocab.tolist())
    # np.unique would sort every record's Python object, one comparison call
    # at a time; sorting only the distinct values gives the same vocabulary
    items = values.tolist()
    vocab = sorted(set(items))
    if all(
        isinstance(v, str) and v.isascii() and v.isdigit() and (v[0] != "0" or v == "0")
        for v in vocab
    ):
        vocab.sort(key=lambda v: (len(v), v))  # without leading zeros, shorter is smaller
    index = {v: i for i, v in enumerate(vocab)}
    codes = np.fromiter(map(index.__getitem__, items), dtype=np.int64, count=len(items))
    return codes, tuple(v.item() if isinstance(v, np.generic) else v for v in vocab)


def vocab_lookup(vocab, target) -> np.ndarray:
    """Position in ``target`` of every vocabulary value; -1 where it is absent."""
    index = {v: i for i, v in enumerate(target)}
    return np.asarray([index.get(v, -1) for v in vocab], dtype=np.int64)


@dataclass(eq=False)
class Dataset:
    """Records against a fixed schema, held as their integer coding.

    ``codes[f]`` indexes the sorted vocabulary ``vocabs[f]`` of feature f+1,
    so its values are ``vocabs[f][codes[f]]``; continuous vocabularies are
    floats in ascending order. ``label_codes`` index the sorted
    ``label_vocab`` the same way. :meth:`from_columns` encodes raw values.
    Subsets and projections keep the full vocabularies, so a vocabulary
    value need not occur in every dataset that holds it.

    Treat instances as immutable: operations return new datasets and may
    share arrays with their inputs.
    """

    schema: FeatureSchema
    codes: tuple[np.ndarray, ...]
    vocabs: tuple[tuple, ...]
    label_codes: np.ndarray
    label_vocab: tuple[str, ...]
    granularity: str = ATTACK23

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if len(self.codes) != len(self.schema) or len(self.vocabs) != len(self.schema):
            raise SchemaError(
                f"expected {len(self.schema)} columns, got {len(self.codes)}"
            )
        n = len(self.label_codes)
        for idx, (codes, vocab) in enumerate(zip(self.codes, self.vocabs), 1):
            if len(codes) != n:
                raise SchemaError(f"column {idx} length {len(codes)} != {n} records")
            if self.schema.kind(idx) == CONTINUOUS and not np.isfinite(
                np.asarray(vocab, dtype=float)
            ).all():
                raise SchemaError(f"feature {idx} has non-finite continuous values")
        if self.granularity == CATEGORY5:
            bad = sorted(set(self.label_vocab) - {NORMAL, *CATEGORIES})
            if bad:
                raise UnknownLabelError(f"labels outside the 5-class set: {bad}")

    @classmethod
    def from_columns(
        cls, schema: FeatureSchema, columns, labels, granularity: str = ATTACK23
    ) -> "Dataset":
        """Encode raw columns (in schema order) and labels once each.

        Continuous columns are coded by numeric value; adding 0.0 turns -0.0,
        which equals 0.0, into 0.0, so both zeros are written back as ``0.0``.
        """
        if len(columns) != len(schema):
            raise SchemaError(f"expected {len(schema)} columns, got {len(columns)}")
        coded = [
            encode(np.asarray(col, dtype=float) + 0.0 if kind == CONTINUOUS else col)
            for col, (_, kind) in zip(columns, schema.features)
        ]
        label_codes, label_vocab = encode(labels)
        return cls(
            schema,
            tuple(c for c, _ in coded),
            tuple(v for _, v in coded),
            label_codes,
            label_vocab,
            granularity,
        )

    def __len__(self) -> int:
        return len(self.label_codes)

    def column(self, index: int) -> np.ndarray:
        """Values of a 1-based feature, decoded: floats if continuous."""
        dtype = float if self.schema.kind(index) == CONTINUOUS else object
        return np.asarray(self.vocabs[index - 1], dtype=dtype)[self.codes[index - 1]]

    @property
    def labels(self) -> np.ndarray:
        """Every record's label, decoded."""
        return np.asarray(self.label_vocab, dtype=object)[self.label_codes]

    def _derive(self, **changes) -> "Dataset":
        """A copy with ``changes`` applied.

        Skips ``__post_init__``: subsets, projections and recodings of a
        validated dataset keep every property it checks.
        """
        derived = copy.copy(self)
        vars(derived).update(changes)
        return derived

    def _label_counts(self) -> np.ndarray:
        return np.bincount(self.label_codes, minlength=len(self.label_vocab))

    def label_set(self) -> tuple[str, ...]:
        """The labels records take, sorted."""
        return tuple(compress(self.label_vocab, self._label_counts()))

    def label_positions(self, labels) -> np.ndarray:
        """Position in ``labels`` of every record's label; ValueError outside it."""
        positions = vocab_lookup(self.label_vocab, labels)[self.label_codes]
        if (positions < 0).any():
            missing = self.label_vocab[self.label_codes[int(np.argmax(positions < 0))]]
            raise ValueError(f"label {missing!r} not in the declared label set")
        return positions

    def subset(self, row_indices) -> "Dataset":
        idx = np.asarray(row_indices, dtype=np.int64)
        return self._derive(
            codes=tuple(c[idx] for c in self.codes),
            label_codes=self.label_codes[idx],
        )

    def project(self, feature_indices: Iterable[int]) -> "Dataset":
        """Keep only the given 1-based features (order preserved ascending)."""
        kept = _kept_features(self.schema, feature_indices)
        return self._derive(
            schema=FeatureSchema(tuple(self.schema.features[i - 1] for i in kept)),
            codes=tuple(self.codes[i - 1] for i in kept),
            vocabs=tuple(self.vocabs[i - 1] for i in kept),
        )

    def recode(
        self, schema: FeatureSchema, coded: Mapping[int, tuple[np.ndarray, tuple]]
    ) -> "Dataset":
        """Replace 1-based columns by integer codes over the given vocabularies.

        ``coded[i] = (codes, vocab)`` makes column i's values ``vocab[codes]``;
        a vocabulary may hold values no record takes.
        """
        codes, vocabs = list(self.codes), list(self.vocabs)
        for i, (c, vocab) in coded.items():
            codes[i - 1], vocabs[i - 1] = c, vocab
        return self._derive(schema=schema, codes=tuple(codes), vocabs=tuple(vocabs))


# Lines parsed and coded together. Each block's field strings are dropped
# before the next block is read, so a parse never holds a whole file's fields.
_BLOCK_LINES = 1024


def _kept_features(schema: FeatureSchema, feature_indices: Iterable[int]) -> list[int]:
    """The given 1-based features, ascending and once each; SchemaError outside ``schema``."""
    kept = sorted(set(int(i) for i in feature_indices))
    for i in kept:
        if not 1 <= i <= len(schema):
            raise SchemaError(f"feature index {i} outside schema")
    return kept


def _float_block(raw, idx: int, schema: FeatureSchema, linenos: list[int]) -> np.ndarray:
    """One block of a continuous column; ParseError names the first bad field's line."""
    try:
        col = np.asarray(raw, dtype=float)
    except ValueError:
        col = None
    if col is None or not np.isfinite(col).all():
        for value, lineno in zip(raw, linenos):  # locate the bad field
            try:
                parsed = float(value)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: feature {idx} "
                    f"({schema.name(idx)}) is not numeric: {value!r}"
                ) from None
            if not np.isfinite(parsed):
                raise ParseError(f"line {lineno}: feature {idx} is not finite: {value!r}")
    return col


def _first_seen_codes(index: dict, raw) -> np.ndarray:
    """Codes of one block's values in order of first appearance; ``index`` grows."""
    new = set(raw).difference(index)
    index.update(zip(new, range(len(index), len(index) + len(new))))
    return np.fromiter(map(index.__getitem__, raw), dtype=np.int64, count=len(raw))


def _sorted_codes(index: dict, blocks: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
    """First-seen codes of every block recoded over the sorted vocabulary."""
    remap, vocab = encode(np.asarray(list(index), dtype=object))
    return remap[np.concatenate(blocks)], vocab


def parse_records(
    lines: Iterable[str],
    schema: FeatureSchema = NSLKDD_SCHEMA,
    features: Iterable[int] | None = None,
) -> Dataset:
    """Parse comma-separated records: 41 features, label, optional difficulty.

    The difficulty column (43rd field) is accepted and discarded. Unknown
    labels are kept verbatim; they are validated when mapping granularities.
    ``features`` keeps only those 1-based features, as
    :meth:`Dataset.project` would, but every line's field count and every
    continuous field is still checked.

    Lines are coded ``_BLOCK_LINES`` at a time: continuous fields as floats,
    discrete fields and labels as first-seen codes. At the end each column
    is encoded once over its sorted vocabulary. A file with faults in
    several blocks reports the first faulty block's error.
    """
    nfeat = len(schema)
    kept = list(range(1, nfeat + 1)) if features is None else _kept_features(schema, features)
    continuous = schema.continuous_indices
    floats = {i: [np.empty(0)] for i in kept if schema.kind(i) == CONTINUOUS}
    # discrete columns and the label (field nfeat + 1): first-seen index, codes
    ints = {
        i: ({}, [np.empty(0, dtype=np.int64)]) for i in (*kept, nfeat + 1) if i not in floats
    }
    rows: list[list[str]] = []
    linenos: list[int] = []

    def code_block() -> None:
        columns = list(zip(*rows))
        for idx in continuous:
            col = _float_block(columns[idx - 1], idx, schema, linenos)
            if idx in floats:
                floats[idx].append(col)
        for idx, (index, blocks) in ints.items():
            blocks.append(_first_seen_codes(index, columns[idx - 1]))
        rows.clear()
        linenos.clear()

    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) not in (nfeat + 1, nfeat + 2):
            raise ParseError(
                f"line {lineno}: expected {nfeat + 1} or {nfeat + 2} fields, "
                f"got {len(fields)}"
            )
        rows.append(fields)
        linenos.append(lineno)
        if len(rows) == _BLOCK_LINES:
            code_block()
    if rows:
        code_block()

    coded = [
        # adding 0.0 turns -0.0, which equals 0.0, into 0.0
        encode(np.concatenate(floats.pop(i)) + 0.0)
        if i in floats
        else _sorted_codes(*ints.pop(i))
        for i in kept
    ]
    label_codes, label_vocab = _sorted_codes(*ints.pop(nfeat + 1))
    return Dataset(
        FeatureSchema(tuple(schema.features[i - 1] for i in kept)),
        tuple(c for c, _ in coded),
        tuple(v for _, v in coded),
        label_codes,
        label_vocab,
    )


def _format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def serialize_records(ds: Dataset) -> Iterator[str]:
    """Emit one CSV line per record (42 fields; no difficulty column).

    Each vocabulary value is formatted once; the codes pick the texts.
    """
    texts = [
        np.asarray([_format_value(v) for v in vocab], dtype=object)[codes].tolist()
        for codes, vocab in zip((*ds.codes, ds.label_codes), (*ds.vocabs, ds.label_vocab))
    ]
    for fields in zip(*texts):
        yield ",".join(fields)


def read_json(path, decode, noun: str):
    """``decode(payload)`` of the JSON file at ``path``.

    A file that is not JSON, or whose payload lacks a key ``decode`` reads or
    has the wrong shape, raises DataError naming ``noun`` and the file.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{noun} {path} is not valid JSON: {exc}") from exc
    try:
        return decode(payload)
    except KeyError as exc:
        raise DataError(f"{noun} {path} is missing key {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {noun} {path}: {exc}") from exc


def json_int(value, key: str) -> int:
    """``value``, which must be a JSON integer: a bool, a float or a text is
    an error naming ``key``, not a number to round."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def json_number(value, key: str) -> float:
    """``value``, which must be a JSON number (an integer or a float), as a
    float: a bool or a text is an error naming ``key``, not a number to read."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def read_dataset(path, features: Iterable[int] | None = None) -> Dataset:
    """Read a dataset CSV; honors a ``<path>.schema.json`` sidecar if present.

    ``features`` keeps only those 1-based features (see :func:`parse_records`).
    """
    path = Path(path)
    sidecar = path.with_name(path.name + ".schema.json")
    schema = NSLKDD_SCHEMA
    granularity = ATTACK23
    if sidecar.exists():
        schema, granularity = read_json(
            sidecar,
            lambda meta: (FeatureSchema.from_payload(meta["schema"]), meta["granularity"]),
            "schema sidecar",
        )
    with open(path, "r", encoding="utf-8") as fh:
        ds = parse_records(fh, schema=schema, features=features)
    if granularity != ATTACK23:
        ds = replace(ds, granularity=granularity)
    return ds


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset CSV plus a schema sidecar describing its columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in serialize_records(ds):
            fh.write(line + "\n")
    meta = {"granularity": ds.granularity, "schema": ds.schema.to_payload()}
    sidecar = path.with_name(path.name + ".schema.json")
    sidecar.write_text(json_text(meta))


def map_labels(ds: Dataset, target: str = CATEGORY5) -> Dataset:
    """Replace each attack label by its category; ``normal`` passes through."""
    if ds.granularity != ATTACK23 or target != CATEGORY5:
        raise ValueError(
            f"can only map {ATTACK23} -> {CATEGORY5}, "
            f"not {ds.granularity} -> {target}"
        )
    present = ds.label_set()
    unknown = [str(lbl) for lbl in present if lbl != NORMAL and lbl not in ATTACK_CATEGORY]
    if unknown:
        raise UnknownLabelError(f"unknown attack labels: {', '.join(unknown)}")
    category = {lbl: lbl if lbl == NORMAL else ATTACK_CATEGORY[lbl] for lbl in present}
    vocab = tuple(sorted(set(category.values())))
    # labels no record takes have no category, and no code points at them
    category_of = vocab_lookup([category.get(lbl) for lbl in ds.label_vocab], vocab)
    return Dataset(ds.schema, ds.codes, ds.vocabs, category_of[ds.label_codes], vocab, CATEGORY5)


@dataclass(frozen=True)
class FoldPlan:
    """Per-record fold assignment for k-fold cross-validation."""

    k: int
    assignments: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.assignments)
        if len(a) and (a.min() < 0 or a.max() >= self.k):
            raise ValueError("fold assignments outside [0, k)")

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def to_payload(self) -> dict:
        return {"k": self.k, "assignments": self.assignments.tolist()}


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold assignment.

    Records of each class are shuffled and dealt cyclically, carrying the
    fold offset across classes, so per-class fold counts differ by at most
    one and overall fold sizes are balanced.
    """
    if k < 2:
        raise ValueError("fold count must be at least 2")
    if k > len(ds):
        raise ValueError(f"cannot split {len(ds)} records into {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(len(ds), dtype=np.int64)
    offset = 0
    for code in np.flatnonzero(ds._label_counts()).tolist():  # in label order
        idx = np.flatnonzero(ds.label_codes == code)
        idx = idx[rng.permutation(len(idx))]
        assignments[idx] = (offset + np.arange(len(idx))) % k
        offset += len(idx)
    return FoldPlan(k=k, assignments=assignments)


def sample_indices(
    ds: Dataset, target_counts: Mapping[str, int], seed: int
) -> np.ndarray:
    """Rows drawn without replacement to hit an exact label histogram, ascending.

    Deterministic per seed; labels missing from ``target_counts`` are
    excluded. ``ds.subset`` of the result is the sample.
    """
    rng = np.random.default_rng(seed)
    code_of = {label: code for code, label in enumerate(ds.label_vocab)}
    chosen: list[np.ndarray] = []
    for label in sorted(target_counts):
        want = int(target_counts[label])
        if want < 0:
            raise SamplingError(f"negative target count for label {label!r}")
        idx = np.flatnonzero(ds.label_codes == code_of.get(label, -1))
        if want > len(idx):
            raise SamplingError(
                f"label {label!r}: requested {want} records but only "
                f"{len(idx)} available (short by {want - len(idx)})"
            )
        if want:
            chosen.append(rng.choice(idx, size=want, replace=False))
    if not chosen:
        return np.asarray([], dtype=np.int64)
    return np.sort(np.concatenate(chosen)).astype(np.int64)
