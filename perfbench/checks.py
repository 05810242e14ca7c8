"""Output checks of the benchmark workloads.

Each check returns ``None`` when the output is correct and a one-line
reason when it is not; the runner counts every reason as one failed
operation.  The rules are chosen to hold at every workload seed:

* AWGN-only BER (phase noise off, no pilots): within 4 SE of the exact
  closed form, on both sides.  The closed form does not go through
  ``Constellation``, so this is the check that catches a wrong bit
  mapping or decision.
* ``ct`` BER: within 10 % of the paired ``dt`` run, above the AWGN-only
  value and below a ceiling ratio to it.  A 3-SE rule on the paired
  difference does not hold at every seed, because ``ber_se`` is binomial
  and ignores the error bursts phase noise causes.
* ``dt`` BER with phase noise: not more than 3 SE below the AWGN-only
  value and below a ceiling ratio to it.  The ceilings are about twice
  the largest ratio measured over seeds 1-20 (see ``workloads.py``).
* ``sir_db`` is never gated for runs with AWGN: it subtracts the known
  noise variance from a residual that is almost all noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings

import numpy as np
from scipy.special import erfc

import phasenoise as pn

CT_DT_REL_TOL = 0.10
SE_LIMIT = 3.0
AWGN_SE_LIMIT = 4.0
VALIDATE_MAX_DEV_DB = 1.5
FIT_RMS_TOL_DB = 1e-6
PSD_TOL_DB = 1e-9


def _q(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def qpsk_awgn_ber(esn0_db: float) -> float:
    """Gray QPSK bit error rate on AWGN alone: Q(sqrt(2 Eb/N0))."""
    return _q(math.sqrt(10.0 ** (esn0_db / 10.0)))


def qam16_awgn_ber(esn0_db: float) -> float:
    """Exact Gray 16-QAM bit error rate on AWGN alone.

    Per axis a Gray 4-PAM: the sign bit errs with (Q(x) + Q(3x))/2, the
    inner/outer bit with Q(x) + (Q(3x) - Q(5x))/2, x = sqrt(Es/(5 N0)).
    """
    x = math.sqrt(10.0 ** (esn0_db / 10.0) / 5.0)
    return (3.0 * _q(x) + 2.0 * _q(3.0 * x) - _q(5.0 * x)) / 4.0


def check_awgn_ber(ber: float, ber_se: float, awgn_ber: float) -> str | None:
    if not abs(ber - awgn_ber) <= AWGN_SE_LIMIT * ber_se:
        return (f"AWGN-only BER {ber:.4g} is {(ber - awgn_ber) / ber_se:+.1f} SE off "
                f"the closed form {awgn_ber:.4g}")
    return None


def _above_ceiling(ber: float, awgn_ber: float, ceiling: float) -> str | None:
    if not ber <= ceiling * awgn_ber:
        return f"BER {ber:.4g} above {ceiling:g} x the AWGN-only value {awgn_ber:.4g}"
    return None


def check_ct_ber(ber: float, paired_dt_ber: float, awgn_ber: float,
                 ceiling: float) -> str | None:
    if not ber > awgn_ber:
        return f"ct BER {ber:.4g} not above the AWGN-only value {awgn_ber:.4g}"
    gap = abs(ber - paired_dt_ber) / paired_dt_ber
    if not gap <= CT_DT_REL_TOL:
        return f"ct BER {ber:.4g} is {gap:.1%} off the paired dt BER {paired_dt_ber:.4g}"
    return _above_ceiling(ber, awgn_ber, ceiling)


def check_sir(sir_db: float, closed_form_db: float) -> str | None:
    if not sir_db >= closed_form_db:
        return f"SIR {sir_db:.2f} dB below the closed form {closed_form_db:.2f} dB"
    return None


def check_dt_ber(ber: float, ber_se: float, awgn_ber: float, ceiling: float,
                 unwrap_flags: int) -> str | None:
    if unwrap_flags != 0:
        return f"{unwrap_flags} pilot unwrap flags"
    if not ber >= awgn_ber - SE_LIMIT * ber_se:
        return (f"BER {ber:.4g} below the AWGN-only value {awgn_ber:.4g} "
                f"by {(awgn_ber - ber) / ber_se:.1f} SE")
    return _above_ceiling(ber, awgn_ber, ceiling)


def digest(samples: np.ndarray) -> str:
    """SHA-256 of the samples as little-endian float64, the binary payload's layout."""
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes()).hexdigest()


def read_csv(path, header: str) -> np.ndarray:
    """Data rows of a CSV artifact as floats, parsed in a streaming way.

    ``#`` lines are metadata and skipped; the first other line must be
    ``header``.
    """
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        if line.rstrip("\n") != header:
            raise ValueError(f"expected header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
            rows = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    return rows.reshape(-1, header.count(",") + 1)


def check_stream_csv(path, n: int, ref_digest: str) -> str | None:
    rows = read_csv(path, "k,theta_rad")
    if rows.shape[0] != n:
        return f"{rows.shape[0]} rows, want {n}"
    if not np.array_equal(rows[:, 0], np.arange(n)):
        return "row index column is not 0..n-1"
    if digest(rows[:, 1]) != ref_digest:
        return "samples differ from gen_composite"
    return None


def check_stream_bin(path, n: int, ref_digest: str) -> str | None:
    with open(path, "rb") as fh:
        magic = fh.readline()
        header = json.loads(fh.readline())
        h, size = hashlib.sha256(), 0
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    if magic != b"PNSTREAM1\n" or header.get("n") != n or size != 8 * n:
        return "bad magic line, sample count or payload size"
    if h.hexdigest() != ref_digest:
        return "binary payload differs from gen_composite"
    return None


def check_validate(path) -> str | None:
    rows = read_csv(path, "freq_hz,est_db,model_db,dev_db")
    if rows.shape[0] == 0:
        return "no comparison bins"
    dev = float(np.max(np.abs(rows[:, 3])))
    if not dev < VALIDATE_MAX_DEV_DB:
        return f"Welch estimate {dev:.2f} dB off the model (limit {VALIDATE_MAX_DEV_DB})"
    return None


def check_psd(path, ref: np.ndarray) -> str | None:
    """``psd`` output against reference (freq Hz, dB) rows computed independently."""
    rows = read_csv(path, "freq_hz,psd_db")
    if rows.shape != ref.shape or not np.allclose(rows[:, 0], ref[:, 0], rtol=1e-12, atol=0):
        return f"{rows.shape[0]} rows or their frequencies differ from the grid"
    dev = float(np.max(np.abs(rows[:, 1] - ref[:, 1])))
    if not dev <= PSD_TOL_DB:
        return f"PSD {dev:.3g} dB off the reference"
    return None


def fit_rms_db(payload: dict, points: np.ndarray) -> float:
    """RMS dB residual of the reported params, recomputed with composite_psd."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fitted corners may exceed f_ref/10
        members = tuple(
            pn.OscillatorParams.from_db(p["f3db"], p["l100_db"], p["linf_db"])
            for p in payload["params"])
    model_db = pn.db(pn.composite_psd(pn.CompositeModel(members), points[:, 0]))
    return float(np.sqrt(np.mean((model_db - points[:, 1]) ** 2)))


def check_fit(payload: dict, points: np.ndarray) -> str | None:
    values = [v for p in payload["params"] for v in p.values() if v is not None]
    if not all(math.isfinite(v) for v in values) or not payload["params"]:
        return "non-finite or missing fitted params"
    reported = payload["residual_rms_db"]
    recomputed = fit_rms_db(payload, points)
    if not abs(reported - recomputed) <= FIT_RMS_TOL_DB:
        return f"reported residual {reported:.6f} dB, params give {recomputed:.6f} dB"
    return None
