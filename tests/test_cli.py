"""Command-line interface: subcommands, files, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ibetrust import cli, ibe, sim


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    return cli.main(argv)


class TestKeygen:
    def test_writes_parseable_material(self, tmp_path):
        out = tmp_path / "keys"
        rc = run_cli(["keygen", "--profile", "toy", "--seed", "7", "--out-dir", str(out)])
        assert rc == 0
        # exactly the two files run --keys reads
        assert sorted(p.name for p in out.iterdir()) == ["master.bin", "params.bin"]
        params = ibe.params_from_bytes((out / "params.bin").read_bytes())
        master = ibe.master_key_from_bytes(params, (out / "master.bin").read_bytes())
        assert (params, master) == ibe.setup(ibe.SecurityConfig.from_profile("toy", seed=7))
        with pytest.raises(SystemExit) as e:
            run_cli(["keygen", "--out-dir", str(out), "--ids", "node-001"])
        assert e.value.code == 2

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(["keygen", "--seed", "3", "--out-dir", str(tmp_path / sub)])
        assert ((tmp_path / "a" / "params.bin").read_bytes()
                == (tmp_path / "b" / "params.bin").read_bytes())
        assert ((tmp_path / "a" / "master.bin").read_bytes()
                == (tmp_path / "b" / "master.bin").read_bytes())


class TestRun:
    def test_bundled_demo(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "energy.csv"
        rc = run_cli(["run", "--scenario", "demo", "--seed", "42",
                      "--out", str(out), "--csv", str(csv_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "simulation report: demo" in stdout
        assert "seed=42" in stdout
        data = json.loads(out.read_text())
        assert data["final_phases"] == {n: "trusted" for n in data["final_phases"]}
        assert csv_path.read_text().startswith("section,name,field,value")

    def test_missing_scenario(self, capsys):
        rc = run_cli(["run", "--scenario", "no-such-file.json"])
        assert rc == 2
        assert "neither a file nor a bundled name" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["", ".", "dir"])
    def test_directory_is_not_a_scenario(self, tmp_path, monkeypatch, capsys, source):
        # "" names the working directory; a directory is skipped, so the
        # name falls through to the bundled lookup and its ConfigError
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        assert run_cli(["run", "--scenario", source]) == 2
        assert "neither a file nor a bundled name" in capsys.readouterr().err

    def test_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo").mkdir()
        assert run_cli(["run", "--scenario", "demo"]) == 0
        assert "simulation report: demo" in capsys.readouterr().out

    def test_scenario_from_stdin(self):
        scenario = {"profile": "toy", "nodes": [{"id": "n1", "images": ["loader", "kernel"]}],
                    "events": []}
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "ibetrust", "run", "--scenario", "/dev/stdin"],
                              input=json.dumps(scenario), capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "simulation report: stdin" in done.stdout

    def test_invalid_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"profile": "toy", "nodes": [], "events": [],
                                   "wat": 1}))
        rc = run_cli(["run", "--scenario", str(bad)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_attack_selector_that_cannot_match(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "profile": "toy",
            "nodes": [{"id": "n1", "images": ["loader", "kernel"]}],
            "events": [{"time": 0, "kind": "attack", "attack": {
                "kind": "replay", "label": "ta-ack", "source": "n1"}}]}))
        rc = run_cli(["run", "--scenario", str(bad)])
        assert rc == 2
        assert "attack.source of a ta-ack must be 'bs'" in capsys.readouterr().err

    def test_keygen_then_run(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        run_cli(["keygen", "--profile", "toy", "--seed", "7", "--out-dir", str(keys)])
        rc = run_cli(["run", "--scenario", "demo", "--keys", str(keys),
                      "--out", str(tmp_path / "with.json")])
        assert rc == 0
        assert "trusted" in capsys.readouterr().out
        # the scenario's bs.master_seed is 7, so the loaded keys change nothing
        run_cli(["run", "--scenario", "demo", "--out", str(tmp_path / "without.json")])
        assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()

    def test_keys_of_another_profile_refused(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        run_cli(["keygen", "--profile", "demo", "--out-dir", str(keys)])
        capsys.readouterr()
        rc = run_cli(["run", "--scenario", "demo", "--keys", str(keys)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "does not match the scenario's 'toy' profile" in captured.err
        assert captured.out == ""

    def test_params_outside_the_profiles_refused(self, tmp_path, capsys):
        keys = tmp_path / "keys"
        run_cli(["keygen", "--profile", "toy", "--seed", "7", "--out-dir", str(keys)])
        capsys.readouterr()
        params = ibe.params_from_bytes((keys / "params.bin").read_bytes())
        (keys / "params.bin").write_bytes(ibe.params_to_bytes(dataclasses.replace(params, n=256)))
        rc = run_cli(["run", "--scenario", "demo", "--keys", str(keys)])
        assert rc == 2
        assert "not one of the profiles ['demo', 'toy']" in capsys.readouterr().err

    def test_missing_keys_dir(self, tmp_path, capsys):
        rc = run_cli(["run", "--scenario", "demo", "--keys", str(tmp_path)])
        assert rc == 2
        assert "missing key material" in capsys.readouterr().err

    def test_constants_override(self, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text(json.dumps({"battery_j": 500}))
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 0
        # halving the battery doubles the nominal total's share of it
        assert "0.0052% of battery" in capsys.readouterr().out

    def test_bad_constants(self, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text(json.dumps({"wattage": 9}))
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 2
        assert "wattage" in capsys.readouterr().err

    def test_verbose_includes_event_stream(self, capsys):
        run_cli(["run", "--scenario", "demo"])
        quiet = capsys.readouterr().out
        run_cli(["run", "--scenario", "demo", "--verbose"])
        loud = capsys.readouterr().out
        assert "accepted trust report" not in quiet
        assert "accepted trust report" in loud

    @pytest.mark.parametrize("overrides", [
        {"voltage": 1e308, "current": 1e308},   # inf process energies
        {"tx_j_per_byte": 1e306},               # inf transmit totals
        {"tx_j_per_byte": 1.7e306},             # finite events, sum overflows fsum
        {"voltage": 10**300, "current": 10**300},  # ints that each fit in a float
    ], ids=["power", "tx-inf", "tx-fsum", "int-power"])
    def test_constants_that_overflow_refused(self, tmp_path, capsys, overrides):
        consts = tmp_path / "c.json"
        consts.write_text(json.dumps(overrides))
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "energy figures overflow a float" in captured.err
        assert captured.out == ""

    def test_constant_too_large_for_a_float_refused(self, tmp_path, capsys):
        consts = tmp_path / "c.json"
        consts.write_text(json.dumps({"boot_s": 10**400}))
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 2
        assert "boot_s must be a finite non-negative number" in capsys.readouterr().err

    def test_non_string_scenario_name_refused(self, tmp_path, capsys):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": 5, "profile": "toy", "nodes": [], "events": []}))
        rc = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "name must be a non-empty string" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_custom_name_round_trip(self, tmp_path, capsys):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({
            "name": "custom run",
            "profile": "toy",
            "nodes": [{"id": "n1", "images": ["loader", "kernel"]}],
            "events": [{"time": 0, "kind": "boot", "node": "n1"},
                       {"time": 1, "kind": "ta", "node": "n1"}],
        }))
        out = tmp_path / "r.json"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out), "--verbose"]) == 0
        live = capsys.readouterr().out
        assert "simulation report: custom run" in live
        assert run_cli(["report", "--in", str(out)]) == 0
        assert capsys.readouterr().out == live

    @pytest.mark.parametrize("field", ["profile", "source", "claimed", "target"])
    def test_unhashable_scenario_value_refused(self, tmp_path, capsys, field):
        attack = ({"kind": "replay", "label": "ake", "source": []} if field == "source"
                  else {"kind": "impersonate", "claimed": "n1", "target": "n2", field: {}})
        scenario = {
            "profile": [] if field == "profile" else "toy",
            "nodes": [{"id": "n1", "images": ["loader", "kernel"]},
                      {"id": "n2", "images": ["loader", "kernel"]}],
            "events": [] if field == "profile" else [
                {"time": 0, "kind": "attack", "attack": attack}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        rc = run_cli(["run", "--scenario", str(path)])
        assert rc == 2
        assert f"{field} must be" in capsys.readouterr().err

    def test_time_too_large_for_a_float_refused(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "profile": "toy",
            "nodes": [{"id": "n1", "images": ["loader", "kernel"]}],
            "events": [{"time": 10**400, "kind": "boot", "node": "n1"}],
        }))
        rc = run_cli(["run", "--scenario", str(path)])
        assert rc == 2
        assert "time must be a non-negative number" in capsys.readouterr().err

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("simulated fault")
        monkeypatch.setattr(sim, "run", boom)
        rc = run_cli(["run", "--scenario", "demo"])
        assert rc == 1
        assert "internal error" in capsys.readouterr().err

    def test_internal_value_error_exit_code(self, monkeypatch, capsys):
        # exit 2 is for input; a ValueError from an invariant is a bug
        def boom(*args, **kwargs):
            raise ValueError("simulated invariant")
        monkeypatch.setattr(sim, "run", boom)
        rc = run_cli(["run", "--scenario", "demo"])
        assert rc == 1
        assert "internal error: ValueError: simulated invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["params.bin", "master.bin"])
    def test_corrupt_key_file_named(self, tmp_path, capsys, name):
        keys = tmp_path / "keys"
        run_cli(["keygen", "--profile", "toy", "--seed", "7", "--out-dir", str(keys)])
        capsys.readouterr()
        path = keys / name
        path.write_bytes(path.read_bytes()[:5])
        rc = run_cli(["run", "--scenario", "demo", "--keys", str(keys)])
        assert rc == 2
        assert f"error: {path}: truncated input" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"battery_j": ', b'\xff{}'], ids=["json", "utf-8"])
    def test_unreadable_constants_named(self, tmp_path, capsys, content):
        consts = tmp_path / "c.json"
        consts.write_bytes(content)
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 2
        assert f"error: {consts}: not a constants file" in capsys.readouterr().err

    def test_missing_constants_file(self, tmp_path, capsys):
        consts = tmp_path / "nope.json"
        rc = run_cli(["run", "--scenario", "demo", "--constants", str(consts)])
        assert rc == 2
        assert str(consts) in capsys.readouterr().err

    def test_scenario_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff{}")
        rc = run_cli(["run", "--scenario", str(path)])
        assert rc == 2
        assert f"error: {path}: not a scenario file" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["name", "id", "images"])
    def test_lone_surrogate_in_scenario_refused(self, tmp_path, capsys, field):
        node = {"id": "n1", "images": ["loader", "kernel"]}
        scenario = {"profile": "toy", "nodes": [node], "events": []}
        if field == "name":
            scenario["name"] = "run\ud800"
        else:
            node[field] = "n\ud800" if field == "id" else ["loader", "k\ud800"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        rc = run_cli(["run", "--scenario", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"{field} must be" in captured.err and "without lone surrogates" in captured.err
        assert captured.out == ""


class TestReport:
    def test_rerender_matches_verbose_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli(["run", "--scenario", "attacks", "--out", str(out), "--verbose"])
        live = capsys.readouterr().out
        rc = run_cli(["report", "--in", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == live

    def test_missing_file(self, tmp_path, capsys):
        rc = run_cli(["report", "--in", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("hello")
        rc = run_cli(["report", "--in", str(path)])
        assert rc == 2

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\xff{}")
        rc = run_cli(["report", "--in", str(path)])
        assert rc == 2
        assert f"error: {path}: not a report file" in capsys.readouterr().err

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"random": "object"}))
        rc = run_cli(["report", "--in", str(path)])
        assert rc == 2
        assert "not a report file" in capsys.readouterr().err

    def test_missing_rendered_key(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"scenario": "demo", "final_phases": {},
                                    "event_log": [], "energy_text": ""}))
        rc = run_cli(["report", "--in", str(path)])
        assert rc == 2
        assert "not a report file" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("final_phases", []),
        ("trust_snapshots", [1]),
        ("rejections", [["t", "actor"]]),
        ("attacks", [{"kind": "replay"}]),
        ("energy_text", 5),
        ("event_log", "abc"),
        ("seed", [1]),
        ("trust_snapshots", [[1, "xy"]]),
        ("rejection_counts", {"nonce_replay": "1"}),
        ("trust_snapshots", [[10**400, []]]),  # a time no float can hold
        ("scenario", "attacks\ud800"),  # a lone surrogate no UTF-8 output can print
        ("final_phases", {"n\ud800": "trusted"}),
    ])
    def test_wrong_value_type(self, tmp_path, capsys, key, value):
        out = tmp_path / "report.json"
        run_cli(["run", "--scenario", "attacks", "--out", str(out)])
        capsys.readouterr()
        data = json.loads(out.read_text())
        data[key] = value
        out.write_text(json.dumps(data))
        rc = run_cli(["report", "--in", str(out)])
        assert rc == 2
        assert "not a report file" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as e:
            run_cli([])
        assert e.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            run_cli(["frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["keygen", "--out-dir", "k\0"],
        ["run", "--scenario", "demo", "--out", "r\0.json"],
        ["run", "--scenario", "demo", "--csv", "e\0.csv"],
        ["run", "--scenario", "demo", "--keys", "k\0"],
        ["run", "--scenario", "demo", "--constants", "c\0.json"],
        ["report", "--in", "r\0.json"],
    ], ids=["out-dir", "out", "csv", "keys", "constants", "in"])
    def test_nul_in_a_path_is_a_usage_error(self, capsys, argv):
        # no shell can put a NUL byte in argv; main([...]) can
        with pytest.raises(SystemExit) as e:
            run_cli(argv)
        assert e.value.code == 2
        assert "path holds a NUL byte" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["keygen", "--seed", "-3", "--out-dir", "k"],
        ["run", "--scenario", "demo", "--seed", "-42"],
    ], ids=["keygen", "run"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # random.Random(-n) would silently repeat the run or keys of seed n
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run_cli(argv)
        assert e.value.code == 2
        assert "--seed: must be a non-negative integer, got '-" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # keygen wrote nothing

    def test_nul_in_a_scenario_name(self, capsys):
        # --scenario also takes bundled names, so no file path check applies
        assert run_cli(["run", "--scenario", "demo\0"]) == 2
        assert "neither a file nor a bundled name" in capsys.readouterr().err
