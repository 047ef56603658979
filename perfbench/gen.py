"""Seeded, vectorized generator of NSL-KDD-format record files.

The benchmark owns its inputs: the label histogram and the per-label
feature profiles below are fixed here, so a change to the program (its
``synth`` module or its built-in reference histogram) cannot change what the
workloads run on. Seeds only drive random draws, so every seed gives inputs
of the same shape: the same label counts, the same class structure and
near-identical work for the pipeline.

Every one of the 23 labels of the reference sample has a profile, each with
a signature that separates it from the rest but overlaps enough (borrowed
profile aspects, noisy protocol, service and flag draws) that naive Bayes
stays imperfect and boosting runs its rounds.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Label histogram of the 62,984-record reference evaluation sample.
REFERENCE_COUNTS = {
    "back": 502, "buffer_overflow": 17, "ftp_write": 4, "guess_passwd": 27,
    "imap": 6, "ipsweep": 1814, "land": 6, "loadmodule": 3, "multihop": 5,
    "neptune": 20750, "nmap": 743, "normal": 33444, "perl": 1, "phf": 3,
    "pod": 87, "portsweep": 1489, "rootkit": 7, "satan": 1829, "smurf": 1327,
    "spy": 1, "teardrop": 437, "warezclient": 469, "warezmaster": 13,
}

PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = (
    "http", "private", "ecr_i", "eco_i", "other", "ftp_data", "ftp", "telnet",
    "smtp", "imap4", "domain_u", "finger", "pop_3", "urp_i", "auth",
)
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1")

# label: (protocol, service, flag, src-bytes mean, dst/src byte ratio,
#         count mean, serror rate, rerror rate, diff-srv rate,
#         dst-host-count mean, logged-in probability, duration mean)
PROFILE = {
    "normal": ("tcp", "http", "SF", 300, 8.0, 8, 0.01, 0.02, 0.05, 150, 0.75, 0.3),
    "back": ("tcp", "http", "SF", 54540, 0.15, 6, 0.0, 0.0, 0.02, 200, 0.95, 0.0),
    "land": ("tcp", "finger", "S0", 0, 0.0, 1, 0.9, 0.0, 0.0, 30, 0.0, 0.0),
    "neptune": ("tcp", "private", "S0", 0, 0.0, 120, 0.95, 0.05, 0.06, 250, 0.0, 0.0),
    "pod": ("icmp", "ecr_i", "SF", 1480, 0.0, 4, 0.0, 0.0, 0.0, 80, 0.0, 0.0),
    "smurf": ("icmp", "ecr_i", "SF", 1032, 0.0, 350, 0.0, 0.0, 0.0, 255, 0.0, 0.0),
    "teardrop": ("udp", "private", "SF", 28, 0.0, 30, 0.0, 0.0, 0.05, 200, 0.0, 0.0),
    "ipsweep": ("icmp", "eco_i", "SF", 18, 0.0, 3, 0.0, 0.0, 0.55, 40, 0.0, 0.0),
    "nmap": ("tcp", "private", "SH", 12, 0.0, 2, 0.4, 0.1, 0.5, 60, 0.0, 0.0),
    "portsweep": ("tcp", "private", "RSTR", 10, 0.0, 5, 0.2, 0.7, 0.6, 120, 0.0, 0.8),
    "satan": ("udp", "other", "REJ", 40, 0.0, 15, 0.1, 0.8, 0.7, 220, 0.0, 0.0),
    "ftp_write": ("tcp", "ftp", "SF", 200, 6.0, 2, 0.0, 0.0, 0.05, 20, 0.9, 30.0),
    "guess_passwd": ("tcp", "telnet", "RSTO", 110, 1.5, 2, 0.0, 0.3, 0.05, 30, 0.1, 2.0),
    "imap": ("tcp", "imap4", "SF", 150, 1.0, 2, 0.3, 0.0, 0.05, 40, 0.6, 0.5),
    "multihop": ("tcp", "telnet", "SF", 900, 4.0, 2, 0.0, 0.0, 0.05, 10, 1.0, 200.0),
    "phf": ("tcp", "http", "SF", 50, 90.0, 2, 0.0, 0.0, 0.05, 5, 1.0, 3.0),
    "spy": ("tcp", "telnet", "SF", 1300, 9.0, 1, 0.0, 0.0, 0.0, 3, 1.0, 9000.0),
    "warezclient": ("tcp", "ftp_data", "SF", 2500, 0.05, 3, 0.0, 0.0, 0.05, 60, 0.9, 40.0),
    "warezmaster": ("tcp", "ftp", "SF", 300, 25.0, 2, 0.0, 0.0, 0.05, 15, 1.0, 300.0),
    "buffer_overflow": ("tcp", "telnet", "SF", 1400, 4.0, 2, 0.0, 0.0, 0.05, 8, 1.0, 80.0),
    "loadmodule": ("tcp", "telnet", "SF", 1100, 3.0, 2, 0.0, 0.0, 0.05, 8, 1.0, 60.0),
    "perl": ("tcp", "telnet", "SF", 800, 2.0, 1, 0.0, 0.0, 0.0, 4, 1.0, 20.0),
    "rootkit": ("tcp", "telnet", "SF", 1000, 3.0, 2, 0.0, 0.0, 0.05, 10, 1.0, 50.0),
}

# Sparse content features: label -> ((0-based field, probability, low, high), ...).
# A record of the label gets a value drawn uniformly from [low, high] with
# the given probability, else 0.
CONTENT = {
    "normal": ((9, 0.05, 1, 3), (12, 0.01, 1, 2), (16, 0.01, 1, 2)),
    "back": ((9, 0.9, 2, 2), (12, 0.9, 1, 1)),
    "land": ((6, 0.95, 1, 1),),
    "pod": ((7, 0.85, 1, 1),),
    "teardrop": ((7, 0.9, 3, 3),),
    "ftp_write": ((9, 0.5, 1, 4), (16, 0.6, 1, 5), (18, 0.3, 1, 2)),
    "guess_passwd": ((10, 0.9, 1, 5),),
    "imap": ((8, 0.1, 1, 1),),
    "multihop": ((9, 0.6, 1, 10), (12, 0.5, 1, 8), (18, 0.4, 1, 3)),
    "phf": ((9, 0.7, 1, 2), (18, 0.3, 1, 1)),
    "spy": ((9, 0.5, 1, 6), (16, 0.4, 1, 3)),
    "warezclient": ((9, 0.6, 1, 28), (21, 0.7, 1, 1)),
    "warezmaster": ((9, 0.6, 1, 28), (21, 0.8, 1, 1), (16, 0.3, 1, 2)),
    "buffer_overflow": ((13, 0.6, 1, 1), (9, 0.5, 1, 5), (16, 0.4, 1, 3), (17, 0.3, 1, 2)),
    "loadmodule": ((13, 0.5, 1, 1), (16, 0.5, 1, 4), (12, 0.3, 1, 3)),
    "perl": ((13, 0.9, 1, 1), (15, 0.6, 1, 3), (14, 0.2, 1, 1)),
    "rootkit": ((13, 0.4, 1, 1), (15, 0.5, 1, 6), (12, 0.4, 1, 4)),
}

# Each label keeps three aspects of its profile (the nominal fields, the
# volume fields and the rate fields) on these shares of its records; the
# rest borrow the aspect from the following labels in turn. A record with a
# borrowed aspect looks partly like another class: the classes overlap,
# naive Bayes errs on a few percent of records, no boosting round is
# perfect, and most boostings run all 10 rounds.
KEEP_NOMINAL = 0.97
KEEP_VOLUME = 0.95
KEEP_RATES = 0.95

LABELS = tuple(sorted(PROFILE))
_NOMINAL = np.asarray([PROFILE[lbl][:3] for lbl in LABELS], dtype=object)
_NUMERIC = np.asarray([PROFILE[lbl][3:] for lbl in LABELS], dtype=float)
_RATE = np.asarray([f"{i / 100:.2f}" for i in range(101)], dtype=object)
_SPREAD_HOSTS = np.asarray([lbl in ("ipsweep", "nmap", "satan") for lbl in LABELS])


def scaled_counts(scale: float) -> dict[str, int]:
    """Reference histogram times ``scale``, keeping at least one of each label."""
    return {lbl: max(1, round(n * scale)) for lbl, n in sorted(REFERENCE_COUNTS.items())}


def _ints(values) -> np.ndarray:
    return np.maximum(values, 0).astype(np.int64).astype(str).astype(object)


def record_lines(counts: dict[str, int], population, order) -> list[str]:
    """Exactly ``counts[label]`` records per label.

    The ``population`` seed draws the records, the ``order`` seed shuffles
    them. Lines have 43 fields: 41 features, the label and a difficulty score.
    """
    rng = np.random.default_rng(population)
    sizes = [int(counts.get(lbl, 0)) for lbl in LABELS]
    if set(counts) - set(LABELS):
        raise ValueError(f"no profile for labels {sorted(set(counts) - set(LABELS))}")
    y = np.repeat(np.arange(len(LABELS)), sizes)
    n = len(y)

    def flips(keep: float) -> tuple[np.ndarray, np.ndarray]:
        """Exactly round(n_label * (1 - keep)) random rows of each label, and
        each row's rank among its label's flipped rows."""
        rows, ranks = [], []
        for label in range(len(LABELS)):
            idx = np.flatnonzero(y == label)
            k = round(len(idx) * (1 - keep))
            rows.append(rng.choice(idx, size=k, replace=False))
            ranks.append(np.arange(k))
        return np.concatenate(rows), np.concatenate(ranks)

    def source(keep: float) -> np.ndarray:
        """Profile row per record; flipped rows borrow the next labels in turn."""
        src = y.copy()
        rows, ranks = flips(keep)
        src[rows] = (y[rows] + 1 + ranks % (len(LABELS) - 1)) % len(LABELS)
        return src

    def noisy(preferred: np.ndarray, options, keep: float) -> np.ndarray:
        out = preferred.copy()
        rows, ranks = flips(keep)
        out[rows] = np.asarray(options, dtype=object)[ranks % len(options)]
        return out

    def rates(mean: np.ndarray) -> np.ndarray:
        cents = np.clip(np.rint(rng.normal(mean * 100, 15)), 0, 100).astype(np.int64)
        return _RATE[cents]

    nominal = _NOMINAL[source(KEEP_NOMINAL)]
    src, dst_ratio, count, _, _, _, hosts, logged_in, duration = _NUMERIC[source(KEEP_VOLUME)].T
    rate_src = source(KEEP_RATES)
    serror, rerror, diff_srv = _NUMERIC[rate_src, 3:6].T

    f = [np.full(n, "0", dtype=object)] * 41
    f[0] = _ints(np.where(rng.random(n) < 0.3, rng.exponential(duration + 0.01), 0))
    f[1] = noisy(nominal[:, 0], PROTOCOLS, 0.9)
    f[2] = noisy(nominal[:, 1], SERVICES, 0.8)
    f[3] = noisy(nominal[:, 2], FLAGS, 0.85)
    f[4] = _ints(rng.normal(src, np.maximum(src * 0.4, 8.0)))
    f[5] = _ints(rng.normal(src * dst_ratio, np.maximum(src * dst_ratio * 0.5, 8.0)))
    f[11] = np.where(rng.random(n) < logged_in, "1", "0").astype(object)
    for label, fields in CONTENT.items():
        rows = np.flatnonzero(y == LABELS.index(label))
        for field, prob, low, high in fields:
            column = f[field].copy()
            hit = rows[rng.random(len(rows)) < prob]
            column[hit] = rng.integers(low, high + 1, size=len(hit)).astype(str)
            f[field] = column
    f[22] = _ints(np.clip(rng.normal(count, count * 0.35 + 1), 1, 511))
    f[23] = _ints(np.clip(rng.normal(count * 0.7, count * 0.3 + 1), 1, 511))
    f[24] = rates(serror)
    f[25] = rates(serror)
    f[26] = rates(rerror)
    f[27] = rates(rerror)
    f[28] = rates(1.0 - diff_srv)
    f[29] = rates(diff_srv)
    f[30] = rates(diff_srv / 2)
    f[31] = _ints(np.clip(rng.normal(hosts, 40), 1, 255))
    f[32] = _ints(np.clip(rng.normal(hosts * (1 - diff_srv), 40), 1, 255))
    f[33] = rates(1.0 - diff_srv)
    f[34] = rates(diff_srv)
    f[35] = rates(np.where(_SPREAD_HOSTS[rate_src], 0.5, 0.05))
    f[36] = rates(diff_srv / 3)
    f[37] = rates(serror)
    f[38] = rates(serror)
    f[39] = rates(rerror)
    f[40] = rates(rerror)
    f.append(np.asarray(LABELS, dtype=object)[y])
    f.append(_ints(rng.integers(0, 22, size=n)))
    rows = np.stack(f, axis=1)[np.random.default_rng(order).permutation(n)]
    return [",".join(row) for row in rows.tolist()]


def write_records(path, counts: dict[str, int], population, order) -> str:
    """Write the record file and return its SHA-256 hex digest."""
    text = "\n".join(record_lines(counts, population, order)) + "\n"
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
