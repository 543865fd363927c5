import json

import pytest

from didom import families
from didom.cli import main
from didom.core import loads_arclist, read_arclist


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_family_gm3(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Gm:3")
        assert code == 0
        data = json.loads(out)
        assert data["gamma"]["value"] == 4
        assert data["rho"]["value"] == 3
        assert "elapsed_ms" not in data["gamma"]

    def test_cycle_total_domination(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "cycle:5")
        assert code == 0
        assert json.loads(out)["gamma_t"]["value"] == 5

    def test_timings_flag(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "Gm:1", "--timings")
        assert code == 0
        assert "elapsed_ms" in json.loads(out)["gamma"]

    def test_file_input(self, capsys, tmp_path, directed_triangle):
        path = tmp_path / "tri.arcs"
        from didom.core import write_arclist

        write_arclist(directed_triangle, str(path))
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0
        assert json.loads(out)["gamma"]["value"] == 2

    def test_empty_graph_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.arcs"
        path.write_text("n 0\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2
        assert "no vertices" in err

    def test_parse_error_has_line(self, capsys, tmp_path):
        path = tmp_path / "bad.arcs"
        path.write_text("n 2\n0 5\n")
        code, _, err = run_cli(capsys, "invariants", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_input(self, capsys):
        # GRAPH is a required positional, so argparse exits with a usage error
        with pytest.raises(SystemExit) as exc:
            main(["invariants"])
        assert exc.value.code == 2
        assert "graph" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "invariants", str(tmp_path / "missing.arcs"))
        assert code == 2 and not out
        assert err.startswith("io error:") and "missing.arcs" in err
        assert "family specs:" in err

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "invariants", "Hm:3")
        _, out2, _ = run_cli(capsys, "invariants", "Hm:3")
        assert out1 == out2

    # the exact report in each entry status: every entry ok; gamma_t
    # undefined (T* has leaves, so its minimum in-degree is 0); and every
    # entry timeout (gamma(Gm:3 [] Gm:3) takes 121 search nodes, and no
    # root certificate answers it or the other three before a zero deadline)
    PINS = {
        "Gm:3": (
            '{"digraph": "Gm:3", '
            '"gamma": {"status": "ok", "value": 4, "witness": [0, 1, 3, 5]}, '
            '"gamma_t": {"status": "ok", "value": 5, "witness": [0, 1, 2, 3, 5]}, '
            '"n": 7, '
            '"rho": {"status": "ok", "value": 3, "witness": [1, 4, 6]}, '
            '"rho_open": {"status": "ok", "value": 5, "witness": [0, 1, 2, 4, 6]}}\n'
        ),
        "Tstar(path:3)": (
            '{"digraph": "Tstar(path:3)", '
            '"gamma": {"status": "ok", "value": 12, '
            '"witness": [0, 2, 4, 6, 7, 9, 11, 13, 14, 16, 18, 20]}, '
            '"gamma_t": {"status": "undefined", "value": null, "witness": null}, '
            '"n": 21, '
            '"rho": {"status": "ok", "value": 12, '
            '"witness": [0, 2, 4, 6, 7, 9, 11, 13, 14, 16, 18, 20]}, '
            '"rho_open": {"status": "ok", "value": 18, '
            '"witness": [0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 18, 19, 20]}}\n'
        ),
        "GM3_SQUARE": (
            '{"digraph": "GM3_SQUARE", '
            '"gamma": {"status": "timeout", "value": null, "witness": null}, '
            '"gamma_t": {"status": "timeout", "value": null, "witness": null}, '
            '"n": 49, '
            '"rho": {"status": "timeout", "value": null, "witness": null}, '
            '"rho_open": {"status": "timeout", "value": null, "witness": null}}\n'
        ),
    }

    @staticmethod
    def _pinned_argv(capsys, tmp_path, graph):
        """The arguments that run ``graph``, and the digraph field of its
        report; GM3_SQUARE is the arc list of Gm:3 [] Gm:3, read at a zero
        deadline."""
        if graph != "GM3_SQUARE":
            return [graph], graph
        path = str(tmp_path / "gm3sq.arcs")
        assert run_cli(capsys, "product", "cart", "Gm:3", "Gm:3", "--out", path)[0] == 0
        return [path, "--timeout-ms", "0"], path

    @pytest.mark.parametrize("graph", PINS)
    def test_report_bytes(self, capsys, tmp_path, graph):
        argv, name = self._pinned_argv(capsys, tmp_path, graph)
        code, out, err = run_cli(capsys, "invariants", *argv)
        assert (code, err) == (0, "")
        assert out == self.PINS[graph].replace("GM3_SQUARE", json.dumps(name)[1:-1])

    @pytest.mark.parametrize("graph", PINS)
    def test_report_keys_with_timings(self, capsys, tmp_path, graph):
        argv, _ = self._pinned_argv(capsys, tmp_path, graph)
        code, out, _ = run_cli(capsys, "invariants", *argv, "--timings")
        assert code == 0
        data = json.loads(out)
        entries = ("gamma", "gamma_t", "rho", "rho_open")
        assert set(data) == {"digraph", "n", *entries}
        for which in entries:
            assert set(data[which]) == {"status", "value", "witness", "elapsed_ms"}
            assert data[which]["elapsed_ms"] >= 0


class TestProduct:
    def test_cart_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "prod.arcs"
        code, out, _ = run_cli(capsys, "product", "cart", "Gm:1", "Gm:1", "--out", str(out_file))
        assert code == 0
        prod = read_arclist(str(out_file))
        assert prod.n == 9 and prod.arc_count == 18

    def test_direct_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "product", "direct", "cycle:3", "cycle:3")
        assert code == 0
        d = loads_arclist(out)
        assert d.n == 9 and d.arc_count == 9

    def test_file_inputs(self, capsys, tmp_path):
        lhs = tmp_path / "lhs.arcs"
        lhs.write_text("n 2\n0 1\n1 0\n")
        code, out, _ = run_cli(capsys, "product", "cart", str(lhs), "path:2")
        assert code == 0
        assert loads_arclist(out).n == 4

    @pytest.mark.parametrize("side", [0, 1])
    def test_missing_file_is_io_error(self, capsys, tmp_path, side):
        # a missing file once read as an unknown family, with no word of the file
        graphs = ["path:2", "path:2"]
        graphs[side] = str(tmp_path / "missing.arcs")
        code, out, err = run_cli(capsys, "product", "cart", *graphs)
        assert code == 2 and not out
        assert err.startswith("io error:") and "missing.arcs" in err
        assert "family specs:" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.arcs"
        bad.write_text("whatever\n")
        code, _, err = run_cli(capsys, "product", "cart", str(bad), "Gm:1")
        assert code == 2
        assert "parse error" in err


class TestFamily:
    def test_emit_matches_builder(self, capsys):
        code, out, _ = run_cli(capsys, "family", "C4:0202")
        assert code == 0
        from didom.families import build_family

        assert loads_arclist(out).out_adj == build_family("C4:0202").out_adj

    def test_roundtrip_through_file(self, capsys, tmp_path):
        path = tmp_path / "fam.arcs"
        code, _, _ = run_cli(capsys, "family", "K1star", "--out", str(path))
        assert code == 0
        d = read_arclist(str(path))
        assert d.n == 7 and d.arc_count == 8

    def test_unknown_family(self, capsys):
        # both ditree weights have a positive total, which is all
        # random.choices checks
        for spec in (
            "mystery:9",
            "ditree:n=6,seed=1,w=1/-0.5/1",
            "ditree:n=6,seed=1,w=-1/-1/3",
            "ditree:n=6,seed=1,seed=2",
        ):
            code, out, _ = run_cli(capsys, "family", spec)
            assert code == 2 and out == ""

    def test_deep_tstar_nesting(self, capsys):
        # T* multiplies the order by 7, so the fourth level over K1star has
        # 16807 vertices; a spec 1200 levels deep once hit the recursion limit
        spec = "Tstar(" * 1200 + "K1star" + ")" * 1200
        code, out, err = run_cli(capsys, "family", spec)
        assert code == 2 and out == ""
        assert err == "error: 16807 vertices exceeds capacity 4096\n"


class TestVerify:
    def test_default_suite_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run_cli(capsys, "verify", "--out", str(out_file))
        assert code == 0
        assert "suite:" in out
        lines = out_file.read_text().splitlines()
        assert lines and all(json.loads(l)["claim"] for l in lines)

    def test_records_byte_stable_unless_timings(self, capsys, tmp_path):
        texts = []
        for k, extra in enumerate(((), (), ("--timings",))):
            out_file = tmp_path / f"run{k}.jsonl"
            code, _, _ = run_cli(capsys, "verify", "--out", str(out_file), *extra)
            assert code == 0
            texts.append(out_file.read_text())
        assert texts[0] == texts[1]
        untimed, timed = ([json.loads(l) for l in t.splitlines()] for t in texts[1:])
        assert all(r["elapsed_ms"] is None for r in untimed)
        assert all(isinstance(r["elapsed_ms"], float) for r in timed)
        for r in timed:
            r["elapsed_ms"] = None
        assert timed == untimed

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(
            "seed 3\ncheck thm:ditree-packing-domination enum-ditrees:4\n"
        )
        code, out, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0
        assert "432" in out

    def test_seed_override(self, capsys, tmp_path):
        # --seed replaces the config's seed: the run draws what a config
        # naming that seed draws
        texts = {}
        for name, seed_line, extra in (
            ("cfg3", "seed 3", ()), ("over7", "seed 3", ("--seed", "7")), ("cfg7", "seed 7", ()),
        ):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"{seed_line}\ncheck thm:meir-moon random-ditrees:count=3,n=6\n")
            out_file = tmp_path / f"{name}.jsonl"
            code, _, _ = run_cli(capsys, "verify", str(cfg), "--out", str(out_file), *extra)
            assert code == 0
            texts[name] = out_file.read_text()
        assert texts["over7"] == texts["cfg7"] != texts["cfg3"]

    def test_timeout_override(self, capsys, tmp_path):
        # the 49-vertex product needs a search, so a zero deadline stops it
        cfg = tmp_path / "gm.cfg"
        cfg.write_text("check conj:vizing-inequality pair:Gm:3|Gm:3\n")
        code, out, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0 and "fails=1" in out  # a whitelisted Vizing failure
        code, out, _ = run_cli(capsys, "verify", str(cfg), "--timeout-ms", "0")
        assert code == 0 and "timeout=1" in out

    def test_timeout_value_in_config_checked(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("seed 3\ntimeout_ms nan\ncheck thm:meir-moon family:path:3\n")
        code, out, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: timeout_ms must be a number >= 0 or inf")

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("check not-a-claim family:K1star\n")
        code, _, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2
        assert "unknown claim" in err

    def test_source_missing_key(self, capsys, tmp_path):
        cfg = tmp_path / "nokey.cfg"
        cfg.write_text("check thm:meir-moon random-ditrees:n=5\n")
        code, _, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2
        assert "count" in err

    def test_source_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("check thm:meir-moon random-ditrees:count=2,n=4,bogus=1\n")
        code, _, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_source_error_names_its_line(self, capsys, tmp_path):
        # the source fails while tasks are built, after parsing succeeded
        cfg = tmp_path / "line2.cfg"
        cfg.write_text(
            "seed 3\ncheck thm:meir-moon random-ditrees:count=2,n=4,bogus=1\n"
        )
        code, _, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2
        assert err.startswith("error: line 2: unknown key 'bogus'")

    def test_gm_source_needs_positive_integers(self, capsys, tmp_path):
        cfg = tmp_path / "gm.cfg"
        for source in ("m:0", "m:", "m:1,,2", "m:-1"):
            cfg.write_text(f"seed 3\ncheck family:Gm-vizing-failure {source}\n")
            code, out, err = run_cli(capsys, "verify", str(cfg))
            assert code == 2 and out == ""
            assert err.startswith("error: line 2: m must be a positive integer")
            assert repr(source) in err
        # (2m+1)^2 > 4096 vertices at m = 32: refused before m = 31 runs
        cfg.write_text("seed 3\ncheck family:Gm-vizing-failure m:31,32\n")
        code, out, err = run_cli(capsys, "verify", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: m = 32 gives product order 4225, over capacity 4096")
        assert repr("m:31,32") in err

    @pytest.mark.parametrize(
        "check, message",
        [
            ("problem:acyclic-packing-domination dags:exhaustive=2,random=2,n=0", "dags wants"),
            ("problem:acyclic-packing-domination dags:exhaustive=2,random=-3,n=4", "dags wants"),
            ("problem:acyclic-packing-domination dags:exhaustive=-1,random=0,n=4", "dags wants"),
            ("problem:acyclic-packing-domination dags:exhaustive=6,random=0,n=6", "dags wants"),
            ("problem:acyclic-packing-domination dags:exhaustive=1,random=1,n=4097", "dags wants"),
            ("thm:meir-moon random-ditrees:count=-2,n=5", "count must be >= 0, got -2"),
            ("thm:meir-moon random-ditrees:count=2,n=1", "n must be >= 2, got 1"),
            ("lemma:closed-helly random-digraphs:count=2,n=0", "n must be >= 1, got 0"),
            ("prop:packing-lower-bound random-pairs:count=-1,n=4", "count must be >= 0, got -1"),
            ("prop:packing-lower-bound random-pairs:count=1,n=0", "n must be >= 1, got 0"),
            (
                "thm:direct-product-total-domination random-min-indeg-pairs:count=2,n=1",
                "n must be >= 2, got 1",
            ),
            ("lemma:closed-helly random-digraphs:count=1,n=4097", "n must be <= 4096, got 4097"),
            ("prop:packing-lower-bound random-pairs:count=1,n=65", "n must be <= 64, got 65"),
            (
                "thm:direct-product-total-domination random-min-indeg-pairs:count=1,n=65",
                "n must be <= 64, got 65",
            ),
            (
                "prop:packing-lower-bound pair:path:100|path:100",
                "product order 10000, over capacity 4096, in 'pair:path:100|path:100'",
            ),
            (
                "cor:isolated-leaf-extension random-pairs:count=3,n=5;attach=99",
                "attach vertex 99 is in no first factor of 'random-pairs:count=3,n=5'",
            ),
            (
                "cor:isolated-leaf-extension random-pairs:count=3,n=5;attach=-1",
                "attach vertex -1 is in no first factor",
            ),
            (
                "cor:isolated-leaf-extension pair:path:64|path:64;attach=0",
                "extended product order 4160, over capacity 4096, in 'pair:path:64|path:64'",
            ),
            ("cor:isolated-leaf-extension random-pairs:count=2,n=64", "n must be <= 63, got 64"),
        ],
    )
    def test_source_sizes_checked(self, capsys, tmp_path, monkeypatch, check, message):
        # each of these once ran nothing, ran another order, or checked the
        # empty digraph; two died in randrange instead.  Of those over
        # capacity, the random ones were refused only when a draw was, after
        # its O(n^2) build, and the pair and attach ones gave error records;
        # the 64-vertex leaf extensions, whose T'[]H needs 65 * 64 = 4160
        # vertices, were accepted, and the pair ran 60 s into a timeout record
        def no_draw(*args):
            raise AssertionError("a refused source drew a digraph")

        monkeypatch.setattr(families, "random_digraph", no_draw)
        monkeypatch.setattr(families, "random_digraph_min_indegree", no_draw)
        cfg, records = tmp_path / "sizes.cfg", tmp_path / "out.jsonl"
        cfg.write_text(f"seed 3\ncheck {check}\n")
        code, out, err = run_cli(capsys, "verify", str(cfg), "--out", str(records))
        assert code == 2 and out == "" and not records.exists()
        assert err.startswith(f"error: line 2: {message}")

    @pytest.mark.parametrize("at", ["99", "-1"])
    def test_attach_vertex_checked(self, capsys, tmp_path, at):
        # K1star has 7 vertices; the leaf extension once raised at run time
        # on a vertex outside them and wrote an error record
        cfg, records = tmp_path / "attach.cfg", tmp_path / "out.jsonl"
        source = f"pair:K1star|path:4;attach={at}"
        cfg.write_text(f"seed 3\ncheck cor:isolated-leaf-extension {source}\n")
        code, out, err = run_cli(capsys, "verify", str(cfg), "--out", str(records))
        assert code == 2 and out == "" and not records.exists()
        assert err.startswith(f"error: line 2: attach vertex {at} is not a vertex of K1star|path:4")

    def test_zero_count_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "check thm:meir-moon random-ditrees:count=0,n=2\n"
            "check prop:packing-lower-bound random-pairs:count=0,n=1\n"
            "check problem:acyclic-packing-domination dags:exhaustive=1,random=0,n=1\n"
        )
        code, out, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0
        assert out.startswith("suite: 1 records holds=1 ")

    def test_search_of_no_dag_holds_nothing(self, capsys, tmp_path):
        cfg = tmp_path / "nodag.cfg"
        records = tmp_path / "nodag.jsonl"
        cfg.write_text("check problem:acyclic-packing-domination dags:exhaustive=0,random=0,n=1\n")
        code, out, _ = run_cli(capsys, "verify", str(cfg), "--out", str(records))
        assert code == 0
        assert out.startswith("suite: 1 records holds=0 fails=0 hypothesis_not_met=1 ")
        (rec,) = [json.loads(line) for line in records.read_text().splitlines()]
        assert (rec["hypotheses_met"], rec["lhs"], rec["rhs"]) == (False, 0, 0)
        assert rec["verdict"] == "hypothesis_not_met" and rec["witnesses"] == {}

    def test_vizing_failure_whitelisted(self, capsys, tmp_path):
        cfg = tmp_path / "viz.cfg"
        cfg.write_text("check conj:vizing-inequality pair:Gm:1|chord5\n")
        code, out, _ = run_cli(capsys, "verify", str(cfg))
        assert code == 0
        assert "fails=1" in out

    def test_checker_error_recorded_and_run_continues(self, capsys, tmp_path):
        # vertex 4 fits a first factor of n = 5, so the source is accepted, but
        # each of these three draws is smaller and makes the checker raise
        cfg = tmp_path / "err.cfg"
        cfg.write_text(
            "seed 42\n"
            "check cor:isolated-leaf-extension random-pairs:count=3,n=5;attach=4\n"
            "check conj:vizing-inequality pair:cycle:4|cycle:4\n"
        )
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run_cli(capsys, "verify", str(cfg), "--out", str(out_file))
        assert code == 1
        assert "suite: 4 records" in out and "error=3" in out
        records = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["error"] * 3 + ["holds"]
        assert records[0]["instance"] == "random-pairs:count=3,n=5;attach=4"
        assert records[0]["extras"]["error"] == "ValueError: attach vertex 4 out of range"

    def test_max_packing_unmet_hypotheses_are_records(self, capsys, tmp_path):
        # factors of order below 3 or not ditrees fail the claim's hypotheses
        cfg = tmp_path / "mp.cfg"
        cfg.write_text(
            "seed 42\ncheck thm:max-packing-dominates random-pairs:count=3,n=5\n"
        )
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run_cli(capsys, "verify", str(cfg), "--out", str(out_file))
        assert code == 0
        assert "hypothesis_not_met=3" in out and "error=0" in out
        records = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["hypothesis_not_met"] * 3
        assert [r["extras"]["reason"] for r in records] == [
            "both factors must have order at least 3",
            "both factors must have order at least 3",
            "both factors must be ditrees",
        ]


class TestTimeoutFlag:
    COMMANDS = [
        ["invariants", "Gm:1"],
        ["verify", "--seed", "3"],
        ["search-acyclic", "--max-n", "2", "--budget", "1"],
    ]

    @pytest.mark.parametrize("value", ["nan", "-1", "-inf", "soon"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_bad_value_is_usage_error(self, capsys, command, value):
        # nan would turn every deadline off; a negative one acts as 0
        with pytest.raises(SystemExit) as exc:
            main(command + [f"--timeout-ms={value}"])
        assert exc.value.code == 2
        assert "argument --timeout-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "inf"])
    def test_zero_and_inf_accepted(self, capsys, value):
        code, out, _ = run_cli(capsys, "invariants", "Gm:1", "--timeout-ms", value)
        assert code == 0
        assert json.loads(out)["rho"]["value"] == 1


class TestSearchAcyclic:
    def test_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "dags.jsonl"
        code, _, err = run_cli(
            capsys,
            "search-acyclic",
            "--max-n", "4",
            "--budget", "10",
            "--seed", "1",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1 + 3 + 25 + 543 + 10
        assert "acyclic search" in err

    def test_strict_inequality_reported(self, capsys, tmp_path):
        # the record at index 1,530 of this run is a 5-vertex DAG with rho 2 < gamma 3
        out_file = tmp_path / "dags.jsonl"
        code, _, err = run_cli(
            capsys,
            "search-acyclic",
            "--max-n", "5",
            "--budget", "1000",
            "--seed", "12",
            "--out", str(out_file),
        )
        assert code == 0
        records = [json.loads(l) for l in out_file.read_text().splitlines()]
        fails = [i for i, r in enumerate(records) if r["verdict"] == "fails"]
        assert fails == [1530]
        bad = records[1530]
        assert (bad["lhs"], bad["rhs"]) == (2, 3)
        assert err.splitlines() == [
            f"packing < domination on {bad['instance']}: 2 < 3",
            "acyclic search: equality on 1571, strict inequality on 1, timeout on 0",
        ]

    def test_timeouts_counted_apart(self, capsys):
        # a zero deadline stops the 33 solves that need a search node
        code, out, err = run_cli(
            capsys, "search-acyclic", "--max-n", "9", "--budget", "300",
            "--seed", "3", "--timeout-ms", "0",
        )
        assert code == 0
        verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
        assert verdicts.count("timeout") == 33 and len(verdicts) == 872
        assert err.splitlines() == [
            "acyclic search: equality on 839, strict inequality on 0, timeout on 33",
        ]

    @pytest.mark.parametrize("flag, value", [("--max-n", "0"), ("--max-n", "-3"), ("--budget", "-2")])
    def test_sizes_are_usage_errors(self, capsys, tmp_path, flag, value):
        # --max-n 0 checked the 0-vertex digraph; --budget -2 ran no DAG.  The
        # search refuses them as it refuses --max-n over capacity
        out_file = tmp_path / "dags.jsonl"
        code, out, err = run_cli(capsys, "search-acyclic", flag, value, "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        key = "n" if flag == "--max-n" else "random"
        assert err.startswith("error: acyclic search wants ") and f" {key}={value}" in err

    def test_budget_not_an_integer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-acyclic", "--budget", "x"])
        assert exc.value.code == 2
        assert "argument --budget: invalid int value: 'x'" in capsys.readouterr().err

    def test_max_n_over_capacity_refused_before_any_record(self, capsys, tmp_path):
        # this run once printed 572 records, then failed on a 4,705-vertex
        # DAG; later it was refused, but only after --out was opened
        out_file = tmp_path / "dags.jsonl"
        code, out, err = run_cli(
            capsys, "search-acyclic", "--max-n", "5000", "--budget", "1", "--seed", "6",
            "--out", str(out_file),
        )
        assert code == 2 and out == "" and not out_file.exists()
        assert err == (
            "error: acyclic search wants exhaustive >= 0, random >= 0, n in 1..4096 and "
            "min(exhaustive, n) <= 5; got exhaustive=4, random=1, n=5000\n"
        )

    def test_stdout_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "search-acyclic", "--max-n", "2", "--budget", "2", "--seed", "0"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line]
        assert all(r["claim"] == "problem:acyclic-packing-domination" for r in records)
