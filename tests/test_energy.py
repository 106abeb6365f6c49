"""Energy constants, ledger accounting, and report assembly."""

import json
import math
import random
from fractions import Fraction

import pytest

from ibetrust import energy
from ibetrust.errors import ConfigError


class TestConstants:
    def test_default_power(self):
        # every timed process draws 72 mW
        c = energy.DEFAULT_CONSTANTS
        for category, seconds in (("boot", c.boot_s), ("switch", c.switching_s),
                                  ("pairing", c.pairing_s), ("sha2", c.sha2_s)):
            assert c.per_unit[category] / seconds == pytest.approx(0.072)

    def test_derived_process_energies(self):
        rate = energy.DEFAULT_CONSTANTS.per_unit
        assert rate["boot"] == pytest.approx(4.248e-3)
        assert rate["sha2"] == pytest.approx(3.6e-3)
        assert rate["switch"] == pytest.approx(16.56e-3)
        assert rate["pairing"] == pytest.approx(0.2916)
        rows = {name: j for name, _, j in energy.build_report({}).process_rows}
        assert rows == {"secure bootup": rate["boot"], "encryption": pytest.approx(3.6e-3),
                        "sha-256": rate["sha2"], "world switch": rate["switch"],
                        "tate pairing": rate["pairing"]}

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            energy.EnergyConstants(boot_s=-1)

    def test_non_numbers_and_non_finite_rejected(self, tmp_path):
        path = tmp_path / "constants.json"
        for text in ('{"voltage": "3.6"}', '{"voltage": true}', '{"current": NaN}',
                     '{"battery_j": Infinity}', '{"pairing_s": -Infinity}',
                     '{"boot_s": 1' + '0' * 400 + '}'):  # an int too large for a float
            path.write_text(text)
            with pytest.raises(ConfigError, match="finite non-negative number"):
                energy.EnergyConstants.from_file(path)
        with pytest.raises(ConfigError, match="battery_j must be positive"):
            energy.EnergyConstants(battery_j=0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"current": 0.030, "battery_j": 500}))
        c = energy.EnergyConstants.from_file(path)
        assert c.per_unit["pairing"] == pytest.approx(0.108 * 4.05)
        assert c.battery_j == 500
        assert c.boot_s == 0.059  # untouched defaults remain

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"wattage": 1}))
        with pytest.raises(ConfigError, match="wattage"):
            energy.EnergyConstants.from_file(path)

    def test_from_file_not_object(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            energy.EnergyConstants.from_file(path)


class TestFormulas:
    def test_joules(self):
        assert energy.joules(0.072, 0.059) == pytest.approx(4.248e-3)
        assert energy.joules(0.072, 0.23) == pytest.approx(16.56e-3)
        assert energy.joules(0.072, 4.05) == pytest.approx(0.2916)
        assert energy.joules(0, 5) == 0

    def test_e_comm_legs(self):
        assert energy.e_comm(319, 0) == pytest.approx(583.77e-6)
        assert energy.e_comm(0, 480) == pytest.approx(950.4e-6)
        assert energy.e_comm(85, 0) == pytest.approx(155.55e-6)
        assert energy.e_comm(319, 480) == pytest.approx(583.77e-6 + 950.4e-6)

    def test_e_total_calibrated_reading(self):
        total = energy.e_total(1, 1, 160, 319, 480)
        assert total == pytest.approx(25.94217e-3)
        assert total < 0.01 * energy.DEFAULT_CONSTANTS.battery_j

    def test_e_total_zero(self):
        assert energy.e_total(0, 0, 0, 0, 0) == 0

    def test_fractional_airtime(self):
        assert energy.fractional_airtime(400) == pytest.approx(479.245283)
        assert round(energy.fractional_airtime(400), 2) == 479.25
        assert energy.fractional_airtime(106) == pytest.approx(127)
        assert energy.fractional_airtime(0) == 0

    def test_framed_airtime(self):
        assert energy.framed_airtime(0) == 0  # no frames, as codec.fragment cuts it
        assert energy.framed_airtime(1) == 22
        assert energy.framed_airtime(400) == 484
        assert energy.framed_airtime(106) == 127
        assert energy.framed_airtime(107) == 107 + 42


# every rate 1.0, so each ledger quantity prices to itself as joules
UNIT = energy.EnergyConstants(voltage=1.0, current=1.0, boot_s=1.0, encryption_s=1.0,
                              sha2_s=1.0, switching_s=1.0, pairing_s=1.0,
                              enc_j_per_bit=1.0, tx_j_per_byte=1.0, rx_j_per_byte=1.0)


class TestLedger:
    def test_accumulation(self):
        led = energy.EnergyLedger()
        led.add("boot", 1, "dy-boot")
        led.add("tx", 319, "ta-request")
        led.add("tx", 85, "ake")
        led.add("tx", 100, "ta-request")
        assert led.entries == [("boot", 1, "dy-boot"), ("tx", 319, "ta-request"),
                               ("tx", 85, "ake"), ("tx", 100, "ta-request")]
        by_category, ta, legs = led.priced(UNIT.per_unit)
        assert by_category == {"boot": [1.0], "switch": [], "encrypt": [], "pairing": [],
                               "sha2": [], "tx": [319.0, 85.0, 100.0], "rx": []}
        assert ta == [1.0, 319.0, 100.0]  # the ake leg is not part of the flow
        assert legs == {("tx", "ta-request"): [419.0, 419.0], ("tx", "ake"): [85.0, 85.0]}
        totals = energy.build_report({"n1": led}).per_node["n1"]
        assert totals["boot"] == energy.DEFAULT_CONSTANTS.per_unit["boot"]  # 1 x rate, exactly
        assert totals["tx"] == pytest.approx(504 * 1.83e-6)
        assert totals["rx"] == 0

    def test_per_unit_prices_every_category(self):
        c = energy.DEFAULT_CONSTANTS
        watts = c.voltage * c.current
        assert c.per_unit == {"boot": watts * c.boot_s, "switch": watts * c.switching_s,
                              "encrypt": c.enc_j_per_bit, "pairing": watts * c.pairing_s,
                              "sha2": watts * c.sha2_s, "tx": c.tx_j_per_byte,
                              "rx": c.rx_j_per_byte}
        assert set(UNIT.per_unit.values()) == {1.0}  # what the rounding tests rely on

    def test_conservation_exact(self):
        led = energy.EnergyLedger()
        amounts = [0.1, 0.2, 0.3, 1e-9, 4.248e-3, 16.56e-3, 22.5e-6]
        for a, c in zip(amounts, energy.CATEGORIES):
            led.add(c, a)
            led.add(c, a / 3)
        totals = energy.build_report({"n1": led}, UNIT).per_node["n1"]
        assert math.fsum(q for _, q, _ in led.entries) == math.fsum(totals.values())

    def test_conservation_bound(self):
        """Category totals and the overall sum are each correctly rounded,
        so they differ by at most half an ulp per rounding."""
        rng = random.Random(2024)
        for _ in range(2000):
            led = energy.EnergyLedger()
            for _ in range(rng.randint(1, 60)):
                led.add(rng.choice(energy.CATEGORIES), 10 ** rng.uniform(-9, 1))
            totals = energy.build_report({"n1": led}, UNIT).per_node["n1"].values()
            direct = math.fsum(q for _, q, _ in led.entries)
            regrouped = math.fsum(totals)
            bound = (sum(Fraction(math.ulp(t)) for t in totals)
                     + Fraction(math.ulp(direct)) + Fraction(math.ulp(regrouped))) / 2
            assert abs(Fraction(direct) - Fraction(regrouped)) <= bound

    def test_totals_by_note(self):
        # bytes and joules of a leg are left-to-right sums in entry order
        led = energy.EnergyLedger()
        led.add("tx", 100, "ta-request")
        led.add("rx", 7, "ake")
        led.add("tx", 200, "ta-request")
        led.add("tx", 85, "ake")
        tx, rx = energy.DEFAULT_CONSTANTS.tx_j_per_byte, energy.DEFAULT_CONSTANTS.rx_j_per_byte
        assert energy.build_report({"n1": led}).comm_rows == [
            ("n1", "tx:ake", 85.0, 85 * tx),
            ("n1", "tx:ta-request", 300.0, 0.0 + 100 * tx + 200 * tx),
            ("n1", "rx:ake", 7.0, 7 * rx),
        ]


class TestReport:
    def _ledgers(self):
        led = energy.EnergyLedger()
        led.add("boot", 1, "dy-boot")
        led.add("switch", 1)
        led.add("encrypt", 128, "ta")
        led.add("tx", 117, "ta-request")
        led.add("rx", 127, "ta-ack")
        led.add("tx", 93, "ake")
        led.add("pairing", 1, "ake")
        return {"node-001": led}

    def test_nominal_rows(self):
        report = energy.build_report(self._ledgers())
        rows = {name: (b, j) for name, b, j in report.nominal_rows}
        assert rows["ta request tx"] == (319, pytest.approx(583.77e-6))
        assert rows["ta ack rx"] == (480, pytest.approx(950.4e-6))
        assert rows["ake tx"] == (85, pytest.approx(155.55e-6))
        assert report.nominal_ta_total_j == pytest.approx(25.94217e-3)

    def test_ta_totals_exclude_pairing_and_ake(self):
        report = energy.build_report(self._ledgers())
        rate = energy.DEFAULT_CONSTANTS.per_unit
        expected = rate["boot"] + rate["switch"] + 128 * rate["encrypt"] + energy.e_comm(117, 127)
        assert report.ta_totals["node-001"] == pytest.approx(expected)
        assert report.per_node["node-001"]["pairing"] == rate["pairing"]

    def test_constants_reach_every_priced_figure(self):
        # the ledger holds no joules: doubling every rate doubles every
        # figure priced from it
        double = energy.EnergyConstants(voltage=7.2, tx_j_per_byte=3.66e-6,
                                        rx_j_per_byte=3.96e-6, enc_j_per_bit=45e-6)
        one = energy.build_report(self._ledgers())
        two = energy.build_report(self._ledgers(), double)
        for c in energy.CATEGORIES:
            assert two.per_node["node-001"][c] == pytest.approx(2 * one.per_node["node-001"][c])
        assert two.ta_totals["node-001"] == pytest.approx(2 * one.ta_totals["node-001"])
        assert [r[3] for r in two.comm_rows] == pytest.approx([2 * r[3] for r in one.comm_rows])

    def test_ta_totals_are_correctly_rounded(self):
        # builtin sum of floats is compensated only from CPython 3.12;
        # math.fsum gives the report the same bytes on every version
        led = energy.EnergyLedger()
        for _ in range(10):
            led.add("boot", 1)
        tenth = energy.EnergyConstants(voltage=1.0, current=1.0, boot_s=0.1)
        assert energy.build_report({"n1": led}, tenth).ta_totals == {"n1": 1.0}

    def test_node_total_is_correctly_rounded(self):
        # one entry per category; their left-to-right float sum renders
        # as 100.005 mJ, their correctly rounded sum as 100.004
        figures = [0.008865, 0.015694, 0.01973, 0.017072, 0.017962, 0.019681, 0.0010005]
        led = energy.EnergyLedger()
        for category, joules in zip(energy.CATEGORIES, figures):
            led.add(category, joules)
        text = energy.render_text(energy.build_report({"n1": led}, UNIT))
        rows = text.split("per-node totals (millijoules)\n")[1].splitlines()
        header, row = rows[0].split(), rows[2].split()
        assert row[header.index("total")] == "100.004"

    def test_trustid_sizing(self):
        report = energy.build_report({}, trusted_count=200)
        assert report.trustid_payload_bytes == 400
        assert ("trust list: 400 payload bytes, airtime 479.25 (fractional) / 484 (framed)"
                in energy.render_text(report).splitlines())
        assert "trust list" not in energy.render_text(energy.build_report({}))

    def test_empty_simulation(self):
        report = energy.build_report({})
        assert report.comm_rows == []
        assert report.ta_totals == {}
        text = energy.render_text(report)
        assert "per-process energy" in text

    def test_render_deterministic(self):
        a = energy.render_text(energy.build_report(self._ledgers()))
        b = energy.render_text(energy.build_report(self._ledgers()))
        assert a == b
        assert "node-001" in a
        assert "RRUAN" in a

    def test_csv_parses_back(self):
        import csv
        import io

        out = energy.render_csv(energy.build_report(self._ledgers(), trusted_count=3))
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "name", "field", "value"]
        sections = {r[0] for r in rows[1:]}
        assert {"process", "comm", "nominal", "node", "comparison", "trustid"} <= sections
