"""Energy accounting: per-process constants, per-node ledger, report.

The model charges a fixed 72 mW processor (20 mA at 3.6 V) for timed
processes (boot, encryption, hashing, world switching, pairing), a
per-bit cost for encryption work, and per-byte radio costs for
transmit and receive.  Each simulated node owns a ledger of the work
it did, in units and not in joules: entries (category, quantity,
note), where the quantity is bytes for tx and rx, bits for encrypt and
one process for the rest, and no times.  This module alone prices
them: build_report has each ledger multiply every entry's quantity
once by its category's rate in EnergyConstants.per_unit, so the
constants given to build_report are the only ones a report reflects.
per_unit is the one rate table: a timed process's rate is
joules(voltage * current, seconds), which the per-process table also
prints, and e_comm and e_total read their rates from it.  The
constants are checked once, by EnergyConstants.  Category, ta-only
and per-node totals are correctly rounded sums (math.fsum), so they
depend neither on the order of the entries nor on the Python version
(3.12 made builtin sum of floats compensated), and the category totals
conserve the sum of the priced entries to within one rounding per
category.

The report renders three tables: per-process energies derived from the
constants, communication legs with both the simulator's true on-air
byte counts and the nominal reference figures the model is calibrated
against, and a comparison against published totals for other schemes.
A trust list's airtime is printed twice: fractional_airtime, the linear
estimate the nominal figures use, and framed_airtime, the on-air bytes
of the frames codec.fragment cuts the payload into, which is 0 for an
empty payload; codec alone sizes a frame.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace

from .codec import MAX_FRAME, MAX_PAYLOAD, fragment, on_air_bytes
from .errors import ConfigError

CATEGORIES = ("boot", "switch", "encrypt", "pairing", "sha2", "tx", "rx")

# nominal per-leg figures the radio model is calibrated against:
# trusted-authentication request 319 bytes out / ack 480 bytes in,
# key-exchange message 85 bytes out, nothing back
NOMINAL_TA_TX_BYTES = 319
NOMINAL_TA_RX_BYTES = 480
NOMINAL_AKE_TX_BYTES = 85
NOMINAL_TA_ENC_BITS = 160  # the reading that makes per-bit cost match the 3.6 mJ row

# published energy totals for comparable schemes, emitted as static
# reference rows in the comparison table
COMPARISON_REFERENCE = (
    ("RRUAN", "106.84 mJ"),
    ("DP2AC", "14.05 mJ + TE"),
    ("Rehana et al.", "72.90 mJ"),
)


@dataclass(frozen=True)
class EnergyConstants:
    voltage: float = 3.6
    current: float = 0.020
    boot_s: float = 0.059
    encryption_s: float = 0.05
    sha2_s: float = 0.05
    switching_s: float = 0.23
    pairing_s: float = 4.05
    enc_j_per_bit: float = 22.5e-6
    tx_j_per_byte: float = 1.83e-6
    rx_j_per_byte: float = 1.98e-6
    battery_j: float = 1000.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # bool is an int subclass; NaN fails the range test, and so does
            # an int too large for a float
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not 0 <= v <= sys.float_info.max):
                raise ConfigError(f"{f.name} must be a finite non-negative number")
            # kept as a float: an energy past the float range is then inf,
            # which build_report refuses, where a product of ints would
            # raise OverflowError on its way into a float
            object.__setattr__(self, f.name, float(v))
        if self.battery_j == 0:
            raise ConfigError("battery_j must be positive (reports divide by it)")

    @property
    def per_unit(self) -> dict[str, float]:
        """Joules per unit of each ledger category: a byte for tx and rx,
        a bit for encrypt, one process for the rest, whose joules are the
        processor's draw over the process's seconds."""
        watts = self.voltage * self.current
        return {"boot": joules(watts, self.boot_s), "switch": joules(watts, self.switching_s),
                "encrypt": self.enc_j_per_bit, "pairing": joules(watts, self.pairing_s),
                "sha2": joules(watts, self.sha2_s), "tx": self.tx_j_per_byte,
                "rx": self.rx_j_per_byte}

    @classmethod
    def from_file(cls, path) -> "EnergyConstants":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: not a constants file ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError("constants file must hold an object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown constants keys: {', '.join(unknown)}")
        return replace(cls(), **data)


DEFAULT_CONSTANTS = EnergyConstants()


def joules(watts: float, time_s: float) -> float:
    """Energy of running a power draw for a duration."""
    return watts * time_s


def e_comm(tx_bytes: float, rx_bytes: float, constants: EnergyConstants = DEFAULT_CONSTANTS) -> float:
    """Radio energy for a transmit/receive byte count pair."""
    rate = constants.per_unit
    return tx_bytes * rate["tx"] + rx_bytes * rate["rx"]


def e_total(
    boots: int,
    switches: int,
    enc_bits: int,
    tx_bytes: float,
    rx_bytes: float,
    constants: EnergyConstants = DEFAULT_CONSTANTS,
) -> float:
    """Composite per-authentication energy: boots, switches, per-bit
    encryption work and radio traffic."""
    rate = constants.per_unit
    return (
        boots * rate["boot"]
        + switches * rate["switch"]
        + enc_bits * rate["encrypt"]
        + e_comm(tx_bytes, rx_bytes, constants)
    )


def fractional_airtime(payload_bytes: float) -> float:
    """Linear airtime payload / MAX_PAYLOAD * MAX_FRAME, no per-frame rounding.

    The simulator's true on-air count rounds up to whole frames; this
    estimate is kept because the nominal figures were derived with it.
    """
    return payload_bytes / MAX_PAYLOAD * MAX_FRAME


def framed_airtime(payload_bytes: int) -> int:
    """True on-air bytes of a payload: those of the frames codec.fragment
    cuts it into, so an empty payload takes none."""
    return on_air_bytes(fragment(0, 0, bytes(payload_bytes)))


class EnergyLedger:
    """Append-only per-node record of billed work: entries (category,
    quantity, note) in units, not joules; only build_report prices them."""

    def __init__(self):
        self.entries: list[tuple[str, float, str]] = []

    def add(self, category: str, quantity: float, note: str = ""):
        self.entries.append((category, quantity, note))

    def priced(self, per_unit: dict[str, float]):
        """Price each entry once, at its category's rate in per_unit.

        Returns the joules of each category, the joules of the
        authentication flow (boot, switch, encrypt and the tx and rx
        legs whose note starts with "ta"), and (category, note) ->
        [quantity, joules] for each tx and rx leg, summed left to right
        in entry order, the same on every Python.
        """
        by_category: dict[str, list[float]] = {c: [] for c in CATEGORIES}
        ta: list[float] = []
        legs: dict[tuple[str, str], list[float]] = {}
        for category, quantity, note in self.entries:
            j = quantity * per_unit[category]
            by_category[category].append(j)
            if category in ("tx", "rx"):
                leg = legs.setdefault((category, note), [0.0, 0.0])
                leg[0] += quantity
                leg[1] += j
                if note.startswith("ta"):
                    ta.append(j)
            elif category in ("boot", "switch", "encrypt"):
                ta.append(j)
        return by_category, ta, legs


@dataclass
class EnergyReport:
    process_rows: list[tuple[str, float, float]]
    comm_rows: list[tuple[str, str, float, float]]  # (node, leg, bytes, joules)
    nominal_rows: list[tuple[str, float, float]]
    nominal_ta_total_j: float
    per_node: dict[str, dict[str, float]]
    ta_totals: dict[str, float]
    comparison_rows: list[tuple[str, str]]
    trustid_payload_bytes: int
    battery_j: float


def build_report(
    ledgers: dict[str, EnergyLedger],
    constants: EnergyConstants = DEFAULT_CONSTANTS,
    trusted_count: int = 0,
) -> EnergyReport:
    """Price the ledgers and reduce them into the report structure.

    Each entry is priced once, as its quantity times its category's
    rate in constants.per_unit.  ta_totals exclude pairing energy: the
    authentication flow bills no pairing (ack decryption's is a known
    gap).  The nominal total is the calibrated one-boot one-switch
    160-bit reading, printed beside the measured numbers rather than
    replacing them.
    """
    watts = constants.voltage * constants.current
    process_rows = [(name, seconds, joules(watts, seconds)) for name, seconds in (
        ("secure bootup", constants.boot_s),
        ("encryption", constants.encryption_s),
        ("sha-256", constants.sha2_s),
        ("world switch", constants.switching_s),
        ("tate pairing", constants.pairing_s),
    )]
    nominal_total = e_total(
        1, 1, NOMINAL_TA_ENC_BITS, NOMINAL_TA_TX_BYTES, NOMINAL_TA_RX_BYTES, constants
    )
    per_unit = constants.per_unit
    priced = {name: ledgers[name].priced(per_unit) for name in sorted(ledgers)}
    # Finite constants can still multiply or add up past the float range.
    # Every joule figure in the report is a non-negative part of this sum,
    # or the battery share of the nominal total, so one check covers them.
    figures = [j for by_category, _, _ in priced.values()
               for js in by_category.values() for j in js]
    figures += [j for _, _, j in process_rows]
    figures += [nominal_total, nominal_total / constants.battery_j * 100]
    try:
        finite = math.isfinite(math.fsum(figures))
    except OverflowError:  # finite terms whose sum is too large for a float
        finite = False
    if not finite:
        raise ConfigError("energy figures overflow a float; the energy constants are too large")
    comm_rows = []
    per_node = {}
    ta_totals = {}
    for name, (by_category, ta, legs) in priced.items():
        per_node[name] = {c: math.fsum(js) for c, js in by_category.items()}
        ta_totals[name] = math.fsum(ta)
        comm_rows += [(name, f"{category}:{note}", quantity, j)
                      for leg in ("tx", "rx")
                      for (category, note), (quantity, j) in sorted(legs.items())
                      if category == leg]
    nominal_rows = [
        ("ta request tx", NOMINAL_TA_TX_BYTES, e_comm(NOMINAL_TA_TX_BYTES, 0, constants)),
        ("ta ack rx", NOMINAL_TA_RX_BYTES, e_comm(0, NOMINAL_TA_RX_BYTES, constants)),
        ("ake tx", NOMINAL_AKE_TX_BYTES, e_comm(NOMINAL_AKE_TX_BYTES, 0, constants)),
    ]
    measured = sorted(ta_totals.values())
    mid = measured[len(measured) // 2] if measured else 0.0
    comparison_rows = list(COMPARISON_REFERENCE) + [
        ("this simulation (nominal reading)", f"{nominal_total * 1e3:.2f} mJ"),
        ("this simulation (measured median)", f"{mid * 1e3:.2f} mJ"),
    ]
    return EnergyReport(
        process_rows=process_rows,
        comm_rows=comm_rows,
        nominal_rows=nominal_rows,
        nominal_ta_total_j=nominal_total,
        per_node=per_node,
        ta_totals=ta_totals,
        comparison_rows=comparison_rows,
        trustid_payload_bytes=2 * trusted_count,
        battery_j=constants.battery_j,
    )


def render_text(report: EnergyReport) -> str:
    """Aligned text tables, deterministic for identical inputs."""
    out = []

    def table(title, headers, rows):
        out.append(title)
        str_rows = [[str(h) for h in headers]] + [
            [c if isinstance(c, str) else f"{c:.6g}" for c in row] for row in rows
        ]
        widths = [max(len(r[i]) for r in str_rows) for i in range(len(headers))]
        for i, row in enumerate(str_rows):
            out.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if i == 0:
                out.append("  " + "  ".join("-" * w for w in widths))
        out.append("")

    table(
        "per-process energy",
        ["process", "seconds", "millijoules"],
        [(n, s, j * 1e3) for n, s, j in report.process_rows],
    )
    table(
        "communication energy (simulated)",
        ["node", "leg", "bytes", "millijoules"],
        [(n, leg, b, j * 1e3) for n, leg, b, j in report.comm_rows],
    )
    table(
        "communication energy (nominal reference)",
        ["leg", "bytes", "millijoules"],
        [(n, b, j * 1e3) for n, b, j in report.nominal_rows],
    )
    out.append(
        "nominal one-shot authentication total: "
        f"{report.nominal_ta_total_j * 1e3:.5f} mJ "
        f"({report.nominal_ta_total_j / report.battery_j * 100:.4f}% of battery)"
    )
    out.append("")
    table(
        "per-node totals (millijoules)",
        ["node"] + list(CATEGORIES) + ["total", "ta-only"],
        [
            [n]
            + [report.per_node[n][c] * 1e3 for c in CATEGORIES]
            + [math.fsum(report.per_node[n].values()) * 1e3, report.ta_totals[n] * 1e3]
            for n in sorted(report.per_node)
        ],
    )
    table("scheme comparison", ["scheme", "authentication energy"], report.comparison_rows)
    tid_bytes = report.trustid_payload_bytes
    if tid_bytes:
        out.append(
            f"trust list: {tid_bytes} payload bytes, "
            f"airtime {fractional_airtime(tid_bytes):.2f} (fractional) / "
            f"{framed_airtime(tid_bytes)} (framed)"
        )
        out.append("")
    return "\n".join(out)


def render_csv(report: EnergyReport) -> str:
    """Machine-readable flat rows: section, key, value columns."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["section", "name", "field", "value"])
    for name, seconds, j in report.process_rows:
        w.writerow(["process", name, "seconds", f"{seconds:.6g}"])
        w.writerow(["process", name, "joules", f"{j:.9g}"])
    for node, leg, nbytes, j in report.comm_rows:
        w.writerow(["comm", f"{node}/{leg}", "bytes", f"{nbytes:.6g}"])
        w.writerow(["comm", f"{node}/{leg}", "joules", f"{j:.9g}"])
    for name, nbytes, j in report.nominal_rows:
        w.writerow(["nominal", name, "bytes", f"{nbytes:.6g}"])
        w.writerow(["nominal", name, "joules", f"{j:.9g}"])
    w.writerow(["nominal", "ta-total", "joules", f"{report.nominal_ta_total_j:.9g}"])
    for node in sorted(report.per_node):
        for c in CATEGORIES:
            w.writerow(["node", node, c, f"{report.per_node[node][c]:.9g}"])
        w.writerow(["node", node, "ta-only", f"{report.ta_totals[node]:.9g}"])
    for scheme, energy in report.comparison_rows:
        w.writerow(["comparison", scheme, "energy", energy])
    w.writerow(["trustid", "payload", "bytes", str(report.trustid_payload_bytes)])
    return buf.getvalue()
