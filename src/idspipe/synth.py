"""Schema-conformant synthetic traffic generator.

Produces records in the 42/43-field NSL-KDD file format with class-dependent
but overlapping feature distributions: useful for demos, CLI smoke tests and
determinism checks when the real dataset is not on disk. The class structure
is learnable but deliberately imperfect for the rare classes.
"""

from __future__ import annotations

import numpy as np

from .data import NORMAL

DEFAULT_MIX = {
    NORMAL: 0.50,
    "neptune": 0.17,
    "smurf": 0.07,
    "satan": 0.06,
    "ipsweep": 0.05,
    "portsweep": 0.04,
    "back": 0.03,
    "nmap": 0.025,
    "teardrop": 0.02,
    "warezclient": 0.015,
    "guess_passwd": 0.01,
    "pod": 0.006,
    "rootkit": 0.004,
    "buffer_overflow": 0.004,
    "ftp_write": 0.003,
    "imap": 0.003,
}

# (protocol, service, flag, src_bytes_mean, count_mean, serror, diff_srv)
_PROFILE = {
    NORMAL: ("tcp", "http", "SF", 300.0, 8.0, 0.0, 0.05),
    "neptune": ("tcp", "private", "S0", 0.0, 120.0, 0.95, 0.05),
    "smurf": ("icmp", "ecr_i", "SF", 1032.0, 350.0, 0.0, 0.0),
    "satan": ("udp", "other", "REJ", 40.0, 15.0, 0.1, 0.7),
    "ipsweep": ("icmp", "eco_i", "SF", 18.0, 3.0, 0.0, 0.55),
    "portsweep": ("tcp", "private", "RSTR", 10.0, 5.0, 0.2, 0.6),
    "back": ("tcp", "http", "SF", 54000.0, 6.0, 0.0, 0.03),
    "nmap": ("icmp", "eco_i", "SF", 12.0, 2.0, 0.0, 0.5),
    "teardrop": ("udp", "private", "SF", 28.0, 30.0, 0.0, 0.05),
    "warezclient": ("tcp", "ftp_data", "SF", 2500.0, 3.0, 0.0, 0.05),
    "guess_passwd": ("tcp", "telnet", "RSTO", 110.0, 2.0, 0.0, 0.05),
    "pod": ("icmp", "ecr_i", "SF", 1480.0, 4.0, 0.0, 0.0),
    "rootkit": ("tcp", "telnet", "SF", 1000.0, 2.0, 0.0, 0.05),
    "buffer_overflow": ("tcp", "telnet", "SF", 1400.0, 2.0, 0.0, 0.05),
    "ftp_write": ("tcp", "ftp", "SF", 200.0, 2.0, 0.0, 0.05),
    "imap": ("tcp", "imap4", "SF", 150.0, 2.0, 0.0, 0.05),
}

_PROTOCOLS = ("tcp", "udp", "icmp")
_SERVICES = (
    "http", "private", "ecr_i", "eco_i", "other", "ftp_data", "ftp",
    "telnet", "smtp", "imap4", "domain_u",
)
_FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO")


def _rate(rng, mean):
    return round(float(np.clip(rng.normal(mean, 0.15), 0.0, 1.0)), 2)


def synthetic_lines(n: int, seed: int = 0, difficulty: bool = True) -> list[str]:
    """Generate ``n`` records in NSL-KDD file format, deterministically."""
    rng = np.random.default_rng(seed)
    labels = list(DEFAULT_MIX)
    probs = np.asarray([DEFAULT_MIX[lbl] for lbl in labels], dtype=float)
    probs = probs / probs.sum()
    lines = []
    for _ in range(n):
        label = labels[rng.choice(len(labels), p=probs)]
        proto, service, flag, src_mean, count_mean, serror, diff_srv = _PROFILE[label]
        fields = ["0"] * 41
        fields[0] = str(int(rng.exponential(2.0))) if rng.random() < 0.2 else "0"
        fields[1] = proto if rng.random() < 0.85 else _PROTOCOLS[rng.integers(3)]
        fields[2] = service if rng.random() < 0.8 else _SERVICES[rng.integers(len(_SERVICES))]
        fields[3] = flag if rng.random() < 0.85 else _FLAGS[rng.integers(len(_FLAGS))]
        fields[4] = str(max(0, int(rng.normal(src_mean, max(src_mean * 0.4, 8.0)))))
        fields[5] = str(max(0, int(rng.normal(src_mean * 0.6, max(src_mean * 0.3, 8.0)))))
        fields[7] = "3" if label == "teardrop" and rng.random() < 0.8 else "0"
        fields[9] = str(int(rng.integers(1, 4))) if label in ("warezclient", "rootkit") and rng.random() < 0.5 else "0"
        fields[10] = str(int(rng.integers(1, 5))) if label == "guess_passwd" and rng.random() < 0.8 else "0"
        fields[11] = "1" if (label == NORMAL) == (rng.random() < 0.75) else "0"
        fields[22] = str(max(1, int(rng.normal(count_mean, count_mean * 0.35 + 1))))
        fields[23] = str(max(1, int(rng.normal(count_mean * 0.7, count_mean * 0.3 + 1))))
        fields[24] = str(_rate(rng, serror))
        fields[25] = str(_rate(rng, serror))
        fields[28] = str(_rate(rng, 1.0 - diff_srv))
        fields[29] = str(_rate(rng, diff_srv))
        fields[31] = str(int(rng.integers(1, 256)))
        fields[32] = str(int(rng.integers(1, 256)))
        fields[33] = str(_rate(rng, 1.0 - diff_srv))
        fields[34] = str(_rate(rng, diff_srv))
        fields.append(label)
        if difficulty:
            fields.append(str(int(rng.integers(0, 22))))
        lines.append(",".join(fields))
    return lines


def write_synthetic(path, n: int, seed: int = 0, difficulty: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in synthetic_lines(n, seed=seed, difficulty=difficulty):
            fh.write(line + "\n")
