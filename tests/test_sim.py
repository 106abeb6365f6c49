"""Scenario loading, discrete-event runs, and the attack suite."""

import hashlib
import json
import random
from collections import Counter

import pytest

from ibetrust import ake, codec, energy, ibe, protocol, sim
from ibetrust.errors import ConfigError

MINIMAL = {
    "profile": "toy",
    "nodes": [{"id": "n1", "images": ["loader", "kernel"]}],
    "events": [
        {"time": 0, "kind": "boot", "node": "n1"},
        {"time": 1, "kind": "ta", "node": "n1"},
    ],
}


def scenario_from(obj):
    return sim.parse_scenario(json.dumps(obj))


class TestScenarioParsing:
    def test_minimal_parses(self):
        sc = scenario_from(MINIMAL)
        assert sc.profile == "toy"
        assert sc.seed == 0
        assert sc.master_seed == 0
        assert sc.trust_offset == 24
        assert sc.loss == 0.0
        assert sc.adversary_taps is True
        assert len(sc.nodes) == 1 and len(sc.events) == 2

    def test_json_error_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            sim.parse_scenario("{not json")

    @pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(ConfigError, match="scenario must be an object"):
            sim.parse_scenario(text)

    def test_unknown_keys_rejected(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            scenario_from(bad)

    def test_undeclared_node_rejected(self):
        bad = dict(MINIMAL, events=[{"time": 0, "kind": "boot", "node": "ghost"}])
        with pytest.raises(ConfigError, match="ghost"):
            scenario_from(bad)

    def test_out_of_order_timestamps(self):
        bad = dict(MINIMAL, events=[
            {"time": 5, "kind": "boot", "node": "n1"},
            {"time": 1, "kind": "ta", "node": "n1"},
        ])
        with pytest.raises(ConfigError, match="non-decreasing"):
            scenario_from(bad)

    def test_all_violations_reported_together(self):
        bad = {
            "profile": "huge",
            "nodes": [{"id": "bs", "images": []},
                      {"id": sim.ADVERSARY, "images": ["loader", "kernel"]}],
            "events": [{"time": -1, "kind": "dance"}],
            "mystery": True,
        }
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        text = str(e.value)
        for fragment in ("profile", "nodes[0]: id 'bs' is reserved",
                         "nodes[1]: id 'adversary' is reserved",  # the forged frames' origin
                         "images", "time", "dance", "mystery"):
            assert fragment in text

    def test_error_text_names_every_object_in_order(self):
        # one broken field in each object; the whole message is pinned
        bad = {
            "profile": "tiny", "seed": -1, "colour": "red",
            "bs": {"master_seed": "7", "trust_offset": 57, "extra": 0},
            "nodes": [
                {"id": "", "images": ["a"], "tamper_level": 9},  # the rest is skipped
                {"id": "n1", "images": ["a"], "tamper_level": 3},
                {"id": "n1", "images": ["a", "b"]},
                {"id": "bs", "images": ["a", "b"], "colour": 1},
                "n3",
            ],
            "channel": {"loss": 2, "adversary_taps": "yes"},
            "events": [
                {"time": 1, "kind": "boot", "node": "ghost"},
                {"time": 0, "kind": "ta"},
                {"time": -1, "kind": "terminate", "node": "n1", "colour": 1},
                {"time": 2, "kind": "ake", "initiator": "n1", "peer": "n1"},
                {"time": 3, "kind": "attack", "attack": {
                    "kind": "replay", "label": "ta-ack", "source": "n1", "occurrence": 0}},
                {"time": 4, "kind": "attack", "attack": {
                    "kind": "modify", "label": "ack", "source": "nobody", "bit": -1,
                    "colour": 1}},
                {"time": 5, "kind": "attack", "attack": {"kind": "fake_node",
                                                         "claimed_wire": 0}},
                {"time": 6, "kind": "attack", "attack": {
                    "kind": "impersonate", "claimed": "ghost", "target": "ghost"}},
                {"time": 7, "kind": "attack", "attack": {"kind": "flood", "colour": 1}},
                {"time": 8, "kind": "attack", "attack": "replay"},
                {"time": 9, "kind": "dance", "colour": 1},
                7,
            ],
        }
        problems = (
            "<memory>: unknown key 'colour'",
            "profile must be one of ['demo', 'toy'], got 'tiny'",
            "seed must be a non-negative integer",
            "bs: unknown key 'extra'",
            "bs.master_seed must be a non-negative integer",
            "bs.trust_offset must be an integer in [0, 56]",
            "nodes[0]: id must be a non-empty string without lone surrogates",
            "nodes[1]: images must be a list of at least two strings without lone surrogates",
            "nodes[1]: tamper_level must be in [2, 2]",
            "nodes[2]: duplicate id 'n1'",
            "nodes[3]: unknown key 'colour'",
            "nodes[3]: id 'bs' is reserved",
            "nodes[4]: must be an object",
            "channel.loss must be a number in [0, 1]",
            "channel.adversary_taps must be a boolean",
            "events[0]: node must reference a declared node, got 'ghost'",
            "events[1]: timestamps must be non-decreasing",
            "events[1]: node must reference a declared node, got None",
            "events[2]: time must be a non-negative number",
            "events[2]: timestamps must be non-decreasing",
            "events[2]: unknown key 'colour'",
            "events[3]: initiator and peer must differ",
            "events[4]: attack.source of a ta-ack must be 'bs'",
            "events[4]: attack.occurrence must be >= 1",
            "events[5]: unknown key 'colour'",
            "events[5]: attack.label must be one of ('ta-request', 'ta-ack', 'ake')",
            "events[5]: attack.source must be a declared node or 'bs'",
            "events[5]: attack.bit must be >= 0",
            "events[6]: attack.claimed_wire must be in [1, 65535]",
            "events[7]: attack.claimed must be a declared node",
            "events[7]: attack.target must be a declared node",
            "events[7]: attack.claimed and target must differ",
            "events[8]: attack.kind must be one of "
            "('replay', 'modify', 'fake_node', 'impersonate')",
            "events[9]: attack must be an object",
            "events[10]: unknown event kind 'dance'",
            "events[11]: must be an object",
        )
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        assert str(e.value) == "<memory>: " + "; ".join(problems)

    def test_name_must_be_non_empty_string(self):
        for name in (5, "", None, ["demo"]):
            with pytest.raises(ConfigError) as e:
                scenario_from(dict(MINIMAL, name=name, seed=-1))
            text = str(e.value)
            assert "name must be a non-empty string" in text and "seed" in text
        assert scenario_from(dict(MINIMAL, name="custom")).name == "custom"

    def test_duplicate_node_id(self):
        bad = dict(MINIMAL, nodes=[
            {"id": "n1", "images": ["a"]},
            {"id": "n1", "images": ["b"]},
        ])
        with pytest.raises(ConfigError, match="duplicate"):
            scenario_from(bad)

    def test_one_image_chain(self):
        bad = dict(MINIMAL, seed=-1, nodes=[{"id": "n1", "images": ["loader"]}])
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        text = str(e.value)
        assert "at least two strings" in text and "seed" in text

    def test_lone_surrogates_listed_with_the_other_problems(self):
        # JSON admits "\ud800"; UTF-8 can neither encode nor print it
        bad = dict(MINIMAL, name="run\ud800", seed=-1, nodes=[
            {"id": "n1", "images": ["loader", "kernel"]},
            {"id": "n\ud800", "images": ["loader", "kernel"]},
            {"id": "n3", "images": ["loader", "k\udfff"]},
        ])
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        text = str(e.value)
        for fragment in ("name must be a non-empty string without lone surrogates",
                         "nodes[1]: id must be", "nodes[2]: images must be", "seed"):
            assert fragment in text
        # a surrogate pair is one character, which UTF-8 encodes
        emoji = "\U0001F600"
        ok = dict(MINIMAL, name=emoji, nodes=[{"id": "n1", "images": [emoji, emoji]}])
        assert scenario_from(ok).name == emoji

    def test_more_nodes_than_wire_ids(self):
        # wire ids are 2 bytes and the base station holds 0
        nodes = [{"id": f"n{i}", "images": ["loader", "kernel"]} for i in range(0x10000)]
        with pytest.raises(ConfigError, match="65536 listed, but 2-byte wire ids fit 65535"):
            scenario_from(dict(MINIMAL, nodes=nodes))
        assert len(scenario_from(dict(MINIMAL, nodes=nodes[:0xFFFF])).nodes) == 0xFFFF

    def test_tamper_level_bounds(self):
        for level in (1, 3):  # 1 is the root of trust, which no boot measures
            bad = dict(MINIMAL, nodes=[{"id": "n1", "images": ["a", "b"], "tamper_level": level}])
            with pytest.raises(ConfigError, match=r"tamper_level must be in \[2, 2\]"):
                scenario_from(bad)

    def test_channel_validation(self):
        bad = dict(MINIMAL, channel={"loss": 1.5, "adversary_taps": "yes"})
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        assert "loss" in str(e.value) and "adversary_taps" in str(e.value)

    def test_ake_event_needs_distinct_parties(self):
        bad = dict(MINIMAL, events=[
            {"time": 0, "kind": "ake", "initiator": "n1", "peer": "n1"}])
        with pytest.raises(ConfigError, match="differ"):
            scenario_from(bad)

    def test_attack_validation(self):
        cases = [
            ({"kind": "teleport"}, "attack.kind"),
            ({"kind": "replay", "label": "chat", "source": "n1"}, "label"),
            ({"kind": "replay", "label": "ake", "source": "ghost"}, "source"),
            ({"kind": "modify", "label": "ake", "source": "n1", "bit": -1}, "bit"),
            ({"kind": "fake_node", "claimed_wire": 0}, "claimed_wire"),
            ({"kind": "impersonate", "claimed": "n1", "target": "n1"}, "differ"),
        ]
        for spec, fragment in cases:
            bad = dict(MINIMAL, events=[{"time": 0, "kind": "attack", "attack": spec}])
            with pytest.raises(ConfigError, match=fragment):
                scenario_from(bad)

    @pytest.mark.parametrize("kind", ["replay", "modify"])
    def test_attack_selector_must_name_the_label_sender(self, kind):
        # only the base station sends ta-acks, and it sends nothing else,
        # so these selectors could never match a captured transmission
        cases = [("ta-ack", "n1", "must be 'bs'"),
                 ("ake", "bs", "must be a declared node"),
                 ("ta-request", "bs", "must be a declared node")]
        for label, source, fragment in cases:
            spec = {"kind": kind, "label": label, "source": source}
            bad = dict(MINIMAL, events=[{"time": 0, "kind": "attack", "attack": spec}])
            with pytest.raises(ConfigError, match=f"attack.source of a {label} {fragment}"):
                scenario_from(bad)
        for label, source in (("ta-ack", "bs"), ("ake", "n1"), ("ta-request", "n1")):
            spec = {"kind": kind, "label": label, "source": source}
            scenario_from(dict(MINIMAL, events=[
                {"time": 0, "kind": "attack", "attack": spec}]))

    @pytest.mark.parametrize("value", [[], {}, ["n1"], {"n1": 1}],
                             ids=["empty-list", "empty-object", "list", "object"])
    def test_unhashable_values_refused(self, value):
        # each is typed before the membership test that would hash it
        attacks = [
            ({"kind": "replay", "label": "ake", "source": value}, "attack.source must be"),
            ({"kind": "modify", "label": "ake", "source": value}, "attack.source must be"),
            ({"kind": "impersonate", "claimed": value, "target": "n1"}, "attack.claimed must"),
            ({"kind": "impersonate", "claimed": "n1", "target": value}, "attack.target must"),
        ]
        cases = [(dict(MINIMAL, profile=value), "profile must be one of")]
        cases += [(dict(MINIMAL, events=[{"time": 0, "kind": "attack", "attack": spec}]),
                   fragment) for spec, fragment in attacks]
        for bad, fragment in cases:
            with pytest.raises(ConfigError, match=fragment):
                scenario_from(bad)

    def test_bools_and_non_finite_numbers_rejected(self):
        bad = dict(
            MINIMAL, seed=True, bs={"master_seed": False, "trust_offset": True},
            nodes=[{"id": "n1", "images": ["a", "b"], "tamper_level": True}],
            channel={"loss": float("inf")},
            events=[
                {"time": float("nan"), "kind": "boot", "node": "n1"},
                {"time": 1, "kind": "attack", "attack": {
                    "kind": "replay", "label": "ake", "source": "n1", "occurrence": True}},
                {"time": 2, "kind": "attack", "attack": {
                    "kind": "modify", "label": "ake", "source": "n1", "bit": False}},
                {"time": 3, "kind": "attack", "attack": {
                    "kind": "fake_node", "claimed_wire": True}},
            ])
        with pytest.raises(ConfigError) as e:
            scenario_from(bad)
        text = str(e.value)
        for fragment in (": seed must", "master_seed", "trust_offset", "tamper_level", "loss",
                         "events[0]: time", "occurrence", "bit", "claimed_wire"):
            assert fragment in text

    def test_bundled_names(self):
        names = sim.bundled_scenarios()
        assert "demo" in names and "attacks" in names
        assert sim.load_scenario("demo").name == "demo"
        assert sim.load_scenario("attacks.json").name == "attacks"
        with pytest.raises(ConfigError, match="neither a file nor a bundled"):
            sim.load_scenario("nope")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(MINIMAL))
        assert sim.load_scenario(str(path)).profile == "toy"


class TestHonestRuns:
    def test_demo_all_trusted(self):
        report = sim.run(sim.load_scenario("demo"))
        assert set(report.final_phases.values()) == {"trusted"}
        assert report.rejections == []
        established = [l for l in report.event_log if "established" in l]
        assert len(established) == 2

    def test_demo_snapshot_progression(self):
        report = sim.run(sim.load_scenario("demo"))
        lists = [ids for _, ids in report.trust_snapshots]
        assert lists[0] == ("node-001",)
        assert lists[1] == ("node-001", "node-002")
        assert lists[2] == ("node-001", "node-002", "node-003")
        assert all(ids == lists[2] for ids in lists[3:])

    def test_sessions_agree(self):
        simulation = sim.Simulation(sim.load_scenario("demo"))
        simulation.run()
        nodes = simulation.nodes
        assert (nodes["node-001"].sessions["node-003"].key
                == nodes["node-003"].sessions["node-001"].key)
        assert (nodes["node-002"].sessions["node-003"].key
                == nodes["node-003"].sessions["node-002"].key)

    @pytest.mark.parametrize("name, digest", [
        ("attacks", "8054ccab1363a7382848d7aca5ce9fb70852b3d5891de89252e4dd1e3009bfda"),
        ("demo", "b65d68281b7d1c3286757486de3b5a30c91398ef5e76f8370ef2561998b9439f"),
    ])
    def test_bundled_report_bytes_pinned(self, name, digest):
        text = sim.run(sim.load_scenario(name)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_reports_byte_identical(self):
        a = sim.run(sim.load_scenario("demo"), seed=42).to_json()
        b = sim.run(sim.load_scenario("demo"), seed=42).to_json()
        assert a == b

    @pytest.mark.parametrize("name", ["demo", "attacks"])
    def test_pairing_cache_holds_only_fixed_points(self, name):
        # every pairing puts P, P_pub or a private key first, so the
        # Miller-line cache holds at most one entry per key, plus two
        simulation = sim.Simulation(sim.load_scenario(name))
        simulation.run()
        params = simulation.bs.params
        keys = [simulation.bs.key.point]
        keys += [node._private_key.point for node in simulation.nodes.values()]
        fixed = {params.generator, params.master_pub, *keys}
        assert params.curve.pairing_count > 0
        assert set(params.curve._lines) <= fixed
        assert len(params.curve._lines) <= len(keys) + 2
        # pairing values are kept only for (fixed point, identity point)
        identities = params.curve.identity_points
        assert identities == set(params._h1.values())
        values = params.curve._values
        assert values
        assert all(A in fixed and B in identities for A, B in values)
        assert len(values) <= (len(keys) + 2) * len(identities)

    def test_construction_builds_no_fixed_base_table(self):
        # the generator's comb is built by the run's first rP, never by setup
        simulation = sim.Simulation(sim.load_scenario("demo"))
        combs, generator = simulation.params.curve._combs, simulation.params.generator
        assert combs[generator] is None
        simulation.run()
        assert combs[generator] is not None

    def test_energy_accumulation(self):
        report = sim.run(sim.load_scenario("demo"))
        per_node = report.energy_report.per_node
        boot_j = 0.072 * 0.059
        assert per_node["node-001"]["boot"] == pytest.approx(2 * boot_j)
        assert per_node["node-003"]["boot"] == pytest.approx(boot_j)
        for name in ("node-001", "node-002", "node-003"):
            assert per_node[name]["tx"] > 0
            assert per_node[name]["rx"] > 0
            assert report.energy_report.ta_totals[name] < 0.01 * 1000

    def test_external_keys_reproduce_run(self):
        config = ibe.SecurityConfig.from_profile("toy", seed=7)
        keys = ibe.setup(config)
        with_keys = sim.run(sim.load_scenario("demo"), keys=keys).to_json()
        without = sim.run(sim.load_scenario("demo")).to_json()
        assert with_keys == without  # bundled scenario uses master_seed 7

    def test_negative_seed_refused(self):
        # random.Random(-42) is random.Random(42): the run would replay
        # seed 42 under the label seed=-42
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            sim.run(sim.load_scenario("demo"), seed=-42)
        assert sim.run(sim.load_scenario("demo"), seed=0).seed == 0

    def test_tampered_node_halts_and_cannot_send(self):
        sc = scenario_from(dict(
            MINIMAL,
            nodes=[{"id": "n1", "images": ["loader", "kernel"], "tamper_level": 2}],
        ))
        report = sim.run(sc)
        assert report.final_phases["n1"] == protocol.HALTED
        assert report.rejection_counts() == {"not_ready": 1}
        assert not any("ta-request" in line for line in report.event_log)

    def test_total_loss_blocks_progress(self):
        sc = scenario_from(dict(MINIMAL, channel={"loss": 1.0}))
        report = sim.run(sc)
        assert report.final_phases["n1"] == protocol.TA  # stuck waiting
        assert report.trust_snapshots == []
        assert any("lost" in line for line in report.event_log)

    def test_partial_loss_breaks_an_ack_chain(self):
        names = [f"n{i:02d}" for i in range(40)]
        sc = scenario_from({
            "profile": "toy",
            "seed": 1,
            "nodes": [{"id": n, "images": ["a", f"k{i}"]} for i, n in enumerate(names)],
            "channel": {"loss": 0.1},
            "events": [{"time": 0, "kind": "boot", "node": n} for n in names]
                      + [{"time": 10 + 20 * i, "kind": "ta", "node": n}
                         for i, n in enumerate(names)],
        })
        report = sim.run(sc)
        # the ack lost its last frame: the one frame that arrived still
        # carries the MORE flag, and only its 127 bytes are billed
        assert (653, "n32", "decrypt_failure",
                "reassembly: fragment chain broken") in report.rejections
        assert report.final_phases["n32"] == protocol.TA
        rx = [row for row in report.energy_report.comm_rows
              if row[:2] == ("n32", "rx:ta-ack")]
        assert rx == [("n32", "rx:ta-ack", 127.0, pytest.approx(127 * 1.98e-6))]
        # n35's two-frame ack lost its first frame: the lone tail is not
        # taken for a whole message, so it is never decrypted and bills
        # only the two switches of its trust report
        assert (713, "n35", "decrypt_failure",
                "reassembly: missing fragment") in report.rejections
        assert report.energy_report.per_node["n35"]["switch"] == pytest.approx(33.12e-3)


def attack_scenario(extra_events, **node_kwargs):
    base = {
        "profile": "toy",
        "seed": 5,
        "bs": {"master_seed": 7},
        "nodes": [
            {"id": "n1", "images": ["loader", "k1"]},
            {"id": "n2", "images": ["loader", "k2"]},
        ],
        "events": [
            {"time": 0, "kind": "boot", "node": "n1"},
            {"time": 0, "kind": "boot", "node": "n2"},
            {"time": 1, "kind": "ta", "node": "n1"},
            {"time": 5, "kind": "ta", "node": "n2"},
            {"time": 10, "kind": "boot", "node": "n1"},
            {"time": 11, "kind": "ta", "node": "n1"},
            {"time": 20, "kind": "ake", "initiator": "n1", "peer": "n2"},
        ] + extra_events,
    }
    base.update(node_kwargs)
    return scenario_from(base)


class TestAttacks:
    def test_bundled_suite_all_blocked(self):
        report = sim.run(sim.load_scenario("attacks"))
        verdicts = {a["kind"]: a for a in report.attacks}
        assert len(report.attacks) == 4
        assert verdicts["replay"]["verdict"] == "blocked"
        assert verdicts["replay"]["detail"] == "nonce_replay"
        assert verdicts["modify"]["verdict"] == "blocked"
        assert verdicts["modify"]["detail"] in ("decrypt_failure", "mac_mismatch")
        assert verdicts["fake_node"]["verdict"] == "blocked"
        assert verdicts["fake_node"]["detail"] == "unknown_id"
        assert verdicts["impersonate"]["verdict"] == "blocked"
        assert verdicts["impersonate"]["detail"] == "key_confirm_failed"
        counts = report.rejection_counts()
        for reason in ("nonce_replay", "unknown_id", "key_confirm_failed"):
            assert counts.get(reason, 0) >= 1

    def test_nonce_check_is_load_bearing(self):
        """Disabling the replay defence must flip the verdict."""
        report = sim.Simulation(sim.load_scenario("attacks"), nonce_check=False).run()
        verdicts = {a["kind"]: a["verdict"] for a in report.attacks}
        assert verdicts["replay"] == "succeeded"
        assert verdicts["modify"] == "blocked"
        assert verdicts["fake_node"] == "blocked"
        assert verdicts["impersonate"] == "blocked"

    def test_replay_of_key_exchange_blocked(self):
        sc = attack_scenario([
            {"time": 30, "kind": "attack",
             "attack": {"kind": "replay", "label": "ake", "source": "n1"}},
        ])
        report = sim.run(sc)
        assert report.attacks[-1]["verdict"] == "blocked"
        assert report.attacks[-1]["detail"] == "nonce_replay"

    def test_replayed_report_computes_no_pairing(self):
        replay = {"time": 30, "kind": "attack", "attack": {
            "kind": "replay", "label": "ta-request", "source": "n1"}}
        computed = []
        for extra in ([], [replay]):
            simulation = sim.Simulation(attack_scenario(extra))
            report = simulation.run()
            computed.append(simulation.params.curve.pairings_computed)
        assert report.attacks == [
            {"kind": "replay", "verdict": "blocked", "detail": "nonce_replay"}]
        assert computed[0] == computed[1]

    def test_replay_before_any_capture_is_noop(self):
        sc = scenario_from(dict(MINIMAL, events=[
            {"time": 0, "kind": "attack",
             "attack": {"kind": "replay", "label": "ta-request", "source": "n1"}},
        ]))
        report = sim.run(sc)
        assert report.attacks[0]["verdict"] == "no-op"

    def test_modify_without_match_is_noop(self):
        sc = scenario_from(dict(MINIMAL, events=[
            {"time": 0, "kind": "attack",
             "attack": {"kind": "modify", "label": "ake", "source": "n1", "bit": 3}},
        ]))
        report = sim.run(sc)
        assert report.attacks[0]["verdict"] == "no-op"

    def test_modify_in_last_frame_of_ack(self):
        # 50 reports make the last ack a 3-frame, 248-byte blob; bit 1900
        # (byte 237) sits in its last frame, which starts at byte 212
        names = [f"n{i:02d}" for i in range(50)]
        base = {
            "profile": "toy",
            "seed": 2,
            "bs": {"master_seed": 7},
            "nodes": [{"id": n, "images": ["a", f"k{i}"]} for i, n in enumerate(names)],
            "events": [{"time": 0, "kind": "boot", "node": n} for n in names]
                      + [{"time": 10 + 10 * i, "kind": "ta", "node": n}
                         for i, n in enumerate(names)],
        }
        clean = sim.run(scenario_from(base))
        base["events"].insert(-1, {"time": 499, "kind": "attack", "attack": {
            "kind": "modify", "label": "ta-ack", "source": "bs", "bit": 1900}})
        report = sim.run(scenario_from(base))
        assert report.attacks == [
            {"kind": "modify", "verdict": "blocked", "detail": "decrypt_failure"}]
        assert [r[1:3] for r in report.rejections] == [("n49", "decrypt_failure")]
        assert report.final_phases["n49"] == protocol.TA
        assert "[501] attack modify flips bit 1900 of ta-ack from bs" in report.event_log
        sent = "[501] bs -> n49 ta-ack 311B in 3 frame(s)"
        assert sent in clean.event_log
        assert sent + " (attack modify)" in report.event_log

    def test_fake_node_with_stolen_wire_id(self):
        """Claiming a real id without its trust value trips the value check."""
        sc = attack_scenario([
            {"time": 30, "kind": "attack",
             "attack": {"kind": "fake_node", "claimed_wire": 1}},
        ])
        report = sim.run(sc)
        assert report.attacks[-1]["verdict"] == "blocked"
        assert report.attacks[-1]["detail"] == "trust_mismatch"

    def test_impersonation_keeps_prior_session(self):
        sc = attack_scenario([
            {"time": 30, "kind": "attack",
             "attack": {"kind": "impersonate", "claimed": "n1", "target": "n2"}},
        ])
        simulation = sim.Simulation(sc)
        report = simulation.run()
        assert report.attacks[-1]["verdict"] == "blocked"
        honest = simulation.nodes["n1"].sessions["n2"].key
        assert simulation.nodes["n2"].sessions["n1"].key == honest

    def test_every_attack_has_a_verdict(self):
        for name in ("attacks",):
            report = sim.run(sim.load_scenario(name))
            assert all(a["verdict"] in ("blocked", "succeeded", "no-op")
                       for a in report.attacks)


def trio(extra_events, trusted="abc"):
    """Toy nodes a, b and c booted at 0; those in `trusted` report in
    that order (every ten time units), then extra_events run from 40."""
    return scenario_from({
        "profile": "toy",
        "seed": 3,
        "bs": {"master_seed": 7},
        "nodes": [{"id": n, "images": ["loader", f"kernel-{n}"]} for n in "abc"],
        "events": [{"time": 0, "kind": "boot", "node": n} for n in "abc"]
        + [{"time": 10 * (i + 1), "kind": "ta", "node": n} for i, n in enumerate(trusted)]
        + extra_events,
    })


class TestVerdictPaths:
    def test_ake_from_untrusted_node(self):
        report = sim.run(trio([{"time": 40, "kind": "ake", "initiator": "a", "peer": "b"}],
                              trusted="bc"))
        assert report.rejections == [(40, "a", "not_trusted", "phase 'dy'")]
        assert report.event_log[-1] == "[40] a reject: not_trusted (phase 'dy')"
        assert report.final_phases["a"] == protocol.DY

    def test_modified_sender_wire_is_malformed(self):
        simulation = sim.Simulation(trio([
            {"time": 40, "kind": "attack",
             "attack": {"kind": "modify", "label": "ake", "source": "a", "bit": 7}},
            {"time": 41, "kind": "ake", "initiator": "a", "peer": "b"},
        ], trusted="bca"))
        report = simulation.run()
        assert report.rejections == [
            (42, "b", "malformed_message", "unknown wire id in ake message")]
        assert report.attacks == [
            {"kind": "modify", "verdict": "blocked", "detail": "malformed_message"}]
        assert report.event_log[-3:] == [
            "[41] attack modify flips bit 7 of ake from a",
            "[41] a -> b ake 33B in 1 frame(s) (attack modify)",
            "[42] b reject: malformed_message (unknown wire id in ake message)",
        ]
        # the refused message still arrived, so its 33 bytes are billed as rx
        b = simulation.nodes["b"]
        assert b.ledger.entries[-1] == ("rx", 33, "ake")
        rows = [row for row in report.energy_report.comm_rows if row[:2] == ("b", "rx:ake")]
        assert rows == [("b", "rx:ake", 33.0, 33 * energy.DEFAULT_CONSTANTS.rx_j_per_byte)]

    def test_impersonation_without_prior_session(self):
        simulation = sim.Simulation(trio([
            {"time": 40, "kind": "attack",
             "attack": {"kind": "impersonate", "claimed": "a", "target": "b"}},
        ]))
        report = simulation.run()
        assert report.rejections == [(41, "b", "key_confirm_failed", "a")]
        assert report.attacks == [
            {"kind": "impersonate", "verdict": "blocked", "detail": "key_confirm_failed"}]
        assert report.event_log[-1] == "[41] b reject: key_confirm_failed (a)"
        assert "a" not in simulation.nodes["b"].sessions

    def test_terminate(self):
        report = sim.run(trio([{"time": 40, "kind": "terminate", "node": "c"}]))
        assert report.final_phases == {"a": protocol.TRUSTED, "b": protocol.TRUSTED,
                                       "c": protocol.TERMINATED}
        assert report.trust_snapshots[-1] == (40, ("a", "b"))
        assert report.event_log[-2:] == ["[40] bs terminates c", "[40] trust list now [a, b]"]
        assert report.rejections == []



class TestAdversaryRefusals:
    """Refusals that only an adversary or a lossy channel causes, reached
    through a whole Simulation: each is recorded once as (time, actor,
    reason, detail), and run() returns, so no other exception escapes."""

    def test_replayed_ack_while_waiting_is_stale(self):
        # a re-authenticates at 41; the ack it got at 12 is replayed and
        # lands before the new one
        events = [{"time": 40, "kind": "boot", "node": "a"},
                  {"time": 41, "kind": "ta", "node": "a"}]
        replayed = sim.Simulation(trio(events + [
            {"time": 41, "kind": "attack", "attack": {
                "kind": "replay", "label": "ta-ack", "source": "bs", "occurrence": 1}}]))
        report = replayed.run()
        assert report.rejections == [(42, "a", "stale_nonce", "7e5d")]
        assert report.attacks == [
            {"kind": "replay", "verdict": "blocked", "detail": "stale_nonce"}]
        assert report.final_phases["a"] == protocol.TRUSTED  # the new ack still lands
        # the node knows the ack by its bytes: against the same run
        # without the replay, its ledger gains the rx bytes alone, no
        # world switch, and no pairing
        honest = sim.Simulation(trio(events))
        honest.run()
        a, a0 = replayed.nodes["a"], honest.nodes["a"]
        gained = Counter(a.ledger.entries)
        gained.subtract(a0.ledger.entries)
        first_ack = next(entry for entry in a0.ledger.entries if entry[0] == "rx")
        assert +gained == {first_ack: 1}
        assert -gained == {}
        assert replayed.params.curve.pairing_count == honest.params.curve.pairing_count

    def test_responder_rebooted_before_the_message_lands(self):
        report = sim.run(trio([
            {"time": 40, "kind": "ake", "initiator": "c", "peer": "b"},
            {"time": 40, "kind": "boot", "node": "b"},
        ]))
        assert report.rejections == [(41, "b", "not_trusted", "phase 'dy'")]

    @staticmethod
    def deliver(label, build):
        """Run trio() with the frames build(simulation, wire ids) makes
        delivered at 40, as if an adversary put them on the air."""
        simulation = sim.Simulation(trio([]))
        wire = {n: simulation.bs.registry.wire_id(n) for n in "abc"}
        wire["bs"] = protocol.BS_WIRE_ID
        frames = build(simulation, wire)
        simulation.push(40, "deliver", sim.Transmission("a", label, frames))
        return simulation, simulation.run()

    def test_mixed_fragment_streams(self):
        _, report = self.deliver("ake", lambda _, w: [
            codec.Frame(w["b"], w["a"], 0, True, bytes(codec.MAX_PAYLOAD)),
            codec.Frame(w["b"], w["c"], 1, False, bytes(10))])
        assert report.rejections == [
            (40, "b", "malformed_message", "reassembly: mixed fragment streams")]

    def test_short_non_final_fragment(self):
        _, report = self.deliver("ta-request", lambda _, w: [
            codec.Frame(w["bs"], w["a"], 0, True, bytes(50)),
            codec.Frame(w["bs"], w["a"], 1, False, bytes(10))])
        assert report.rejections == [
            (40, "bs", "decrypt_failure", "reassembly: short non-final fragment")]

    def test_r_of_the_wrong_order(self):
        # an on-curve R outside the order-q subgroup, from a listed
        # sender, with the unkeyed MAC recomputed: only the order check
        # refuses it
        def build(simulation, w):
            params = simulation.params
            curve = params.curve
            R = next(P for P in map(curve.point_from_y, range(params.p))
                     if curve.mul(params.q, P) is not None)
            nonce = b"\x00\x07"
            msg = ake.AkeMessage("a", "b", R, nonce, ake.message_mac(params, "a", R, nonce))
            blob = protocol.ake_message_to_bytes(simulation.bs.registry, params, msg)
            return codec.fragment(w["b"], w["a"], blob)

        simulation, report = self.deliver("ake", build)
        assert "a" in simulation.nodes["b"].trust_list
        assert report.rejections == [(40, "b", "off_curve", "")]


class TestReportShape:
    def test_dict_roundtrip_renders_identically(self):
        report = sim.run(sim.load_scenario("attacks"))
        direct = sim.render_report_dict(report.to_dict())
        via_json = sim.render_report_dict(json.loads(report.to_json()))
        assert direct == via_json
        for section in ("final node phases", "rejection log", "attack verdicts",
                        "event log", "per-process energy"):
            assert section in direct

    def test_no_trust_snapshots_render_as_none(self):
        # a node that boots and never reports leaves no trust snapshot
        quiet = dict(MINIMAL, events=MINIMAL["events"][:1])
        report = sim.run(scenario_from(quiet))
        assert report.trust_snapshots == []
        assert "trust list snapshots\n  (none)\n" in sim.render_report_dict(report.to_dict())

    def test_each_rejection_logged_once_in_order(self):
        report = sim.run(sim.load_scenario("attacks"))
        assert report.rejections
        expected = [f"[{t:g}] {actor} reject: {reason}" + (f" ({detail})" if detail else "")
                    for t, actor, reason, detail in report.rejections]
        assert [line for line in report.event_log if " reject: " in line] == expected

    def test_report_counts_consistent(self):
        report = sim.run(sim.load_scenario("attacks"))
        assert sum(report.rejection_counts().values()) == len(report.rejections)
