import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

import phicon
from phicon import cli
from phicon.cli import load_config, run
from phicon.errors import PhiconError
from tests.conftest import DATA_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def small_conll(tmp_path):
    """A small coarse-labeled corpus file written via the synth command."""
    path = tmp_path / "site_a.conll"
    assert run(["synth", "--site", "A", "--docs", "12", "--seed", "1",
                "--coarse", "--out", str(path)]) == 0
    return path


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "augment" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert run(["augment", "--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert run(["stats", "--bogus"]) == 2

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert phicon.__version__ in capsys.readouterr().out

    def test_missing_input_is_domain_error(self, tmp_path, capsys):
        code = run(["stats", "--in", str(tmp_path / "nope.conll")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfig:
    def test_example_config_loads(self):
        config = load_config(os.path.join(REPO_ROOT, "config.example.ini"))
        assert config["augment"]["alpha"] == "2"
        assert cli._setting(None, config, "generator.Zip", "patterns") == \
            (r"\d{5}",)
        assert cli._setting(None, config, "generator.Zip", "count") == 1000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[augment]\nalfa = 2\n")
        with pytest.raises(PhiconError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(PhiconError):
            load_config(path)

    def test_missing_config_file(self, tmp_path):
        assert run(["--config", str(tmp_path / "none.ini"),
                    "stats", "--in", "x"]) == 1

    def test_flag_beats_config(self, tmp_path, small_conll, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[augment]\nalpha = 1\n")
        out = tmp_path / "aug.conll"
        assert run(["--config", str(cfg), "augment",
                    "--in", str(small_conll), "--out", str(out),
                    "--alpha", "3", "--seed", "5"]) == 0
        merged = phicon.read_conll(out)
        assert sum(1 for d in merged.documents if "#aug3" in d.id) > 0

    def test_config_seed_is_flag_seed(self, tmp_path):
        # [augment] seed seeds the registry as --seed does, so both write
        # the same corpus and records.
        corpus = tmp_path / "fine.conll"
        assert run(["synth", "--site", "A", "--docs", "6", "--seed", "1",
                    "--out", str(corpus)]) == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[augment]\nseed = 5\n")
        outputs = []
        for name, argv in (("flag", ["augment", "--seed", "5"]),
                           ("config", ["--config", str(cfg), "augment"])):
            out, records = tmp_path / f"{name}.conll", tmp_path / f"{name}.jsonl"
            assert run(argv + ["--in", str(corpus), "--out", str(out),
                               "--records", str(records)]) == 0
            outputs.append((out.read_bytes(), records.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("section,key", [("paths", "output_dir"),
                                             ("experiment", "fractions")])
    def test_unread_key_rejected(self, small_conll, tmp_path, capsys,
                                 section, key):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{key} = x\n")
        assert run(["--config", str(cfg), "stats",
                    "--in", str(small_conll)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: unknown keys ['{key}'] in [{section}]")

    def test_config_boolean_words(self):
        # configparser's words, in any case; "on" used to mean False.
        args = cli.build_parser().parse_args(
            ["augment", "--in", "x", "--out", "y"])
        for word, value in (("1", True), ("YES", True), ("True", True),
                            ("on", True), ("0", False), ("No", False),
                            ("false", False), ("OFF", False)):
            cfg = cli._augment_config(args, {"augment": {"enable_sr": word}})
            assert cfg.enable_sr is value, word

    @pytest.mark.parametrize("word", ["flase", "2", "y", ""])
    def test_bad_config_boolean(self, small_conll, tmp_path, capsys, word):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[augment]\nenable_sr = {word}\n")
        out = tmp_path / "aug.conll"
        assert run(["--config", str(cfg), "augment", "--in", str(small_conll),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [augment] enable_sr: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[generator.Patient]\ncount = 5\n",
        "[generator.Bogus]\n",
        "[generator.Zip]\ncount = 0\n",
        "[generator.Zip]\npatterns =\n    \\d{5}\ncount = -1\n",
        "[generator.Zip]\nseed = abc\n",
        "[generator.Zip]\ncount = x\n",
        "[generator.Phone]\npatterns =\n    \\d{3}\n    \\d{4}\n"
        "weights = nan 1\n",
        "[generator.Phone]\npatterns =\n    \\d{3}\n    \\d{4}\n"
        "weights = inf 1\n",
        "[generator.Zip]\npatterns =\n    \\d{5}\nweights = -1\n",
        "[generator.Zip]\npatterns =\n    \\d{5}\nweights = 1 2\n",
        "[generator.Zip]\nweights = 2\n",
    ], ids=["curated-type", "unknown-type", "count-zero", "count-negative",
            "seed-not-int", "count-not-int", "weight-nan", "weight-inf",
            "weight-negative", "weight-count", "weights-without-patterns"])
    def test_bad_generator_section(self, small_conll, tmp_path, capsys, text):
        # Each used to augment with exit 0, the section ignored or a NaN or
        # infinite weight taken, or fail with a message that names no
        # section.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        out = tmp_path / "aug.conll"
        assert run(["--config", str(cfg), "augment", "--in", str(small_conll),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [generator.")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_generator_value_checked_when_read(self, small_conll, tmp_path):
        # A section value is typed only by a command that reads it, and a
        # flag that wins leaves the section value unread.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.Zip]\nseed = abc\n")
        assert run(["--config", str(cfg), "stats",
                    "--in", str(small_conll)]) == 0
        out, ref = tmp_path / "zips.txt", tmp_path / "ref.txt"
        for path, config in ((out, ["--config", str(cfg)]), (ref, [])):
            assert run(config + ["gen-lexicon", "--type", "Zip", "--count",
                                 "20", "--seed", "4", "--out", str(path)]) == 0
        assert out.read_bytes() == ref.read_bytes()


class TestSynthSplitStats:
    def test_synth_writes_parseable_corpus(self, small_conll):
        corpus = phicon.read_conll(small_conll)
        assert len(corpus.documents) == 12
        assert corpus.documents[0].id == "SiteA-0000"

    def test_split(self, small_conll, tmp_path):
        prefix = str(tmp_path / "part")
        assert run(["split", "--in", str(small_conll),
                    "--out-prefix", prefix, "--seed", "3"]) == 0
        sizes = [len(phicon.read_conll(f"{prefix}.{n}.conll").documents)
                 for n in ("train", "dev", "test")]
        assert sizes == [8, 1, 3]  # 12 docs at 0.7/0.1/0.2

    def test_bad_ratios(self, small_conll, tmp_path):
        assert run(["split", "--in", str(small_conll),
                    "--out-prefix", str(tmp_path / "p"),
                    "--ratios", "0.5,0.5"]) == 1

    def test_stats(self, small_conll, capsys):
        assert run(["stats", "--in", str(small_conll)]) == 0
        out = capsys.readouterr().out
        assert "notes: 12" in out
        assert "NAME" in out


class TestGenLexicon:
    def test_default_spec(self, tmp_path, capsys):
        out = tmp_path / "zips.txt"
        assert run(["gen-lexicon", "--type", "Zip", "--count", "100",
                    "--seed", "4", "--out", str(out)]) == 0
        entries = out.read_text().splitlines()
        assert len(entries) == len(set(entries)) == 100
        assert all(re.fullmatch(r"\d{5}", e) for e in entries)

    def test_config_pattern_override(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.ID]\npatterns =\n    [A-Z]{3}\n")
        out = tmp_path / "ids.txt"
        assert run(["--config", str(cfg), "gen-lexicon", "--type", "ID",
                    "--count", "50", "--out", str(out)]) == 0
        assert all(re.fullmatch(r"[A-Z]{3}", e)
                   for e in out.read_text().splitlines())

    def test_bad_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "zips.txt"
        for count in ("0", "-2", "x"):
            assert run(["gen-lexicon", "--type", "Zip", "--count", count,
                        "--out", str(out)]) == 2, count
            assert "error: argument --count" in capsys.readouterr().err
            assert not out.exists()

    def test_section_count_and_seed_apply_unless_flagged(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.Zip]\ncount = 10\nseed = 3\n")
        for flags, same_as in (([], ["--count", "10", "--seed", "3"]),
                               (["--count", "7", "--seed", "4"],
                                ["--count", "7", "--seed", "4"])):
            out, ref = tmp_path / "zips.txt", tmp_path / "ref.txt"
            assert run(["--config", str(cfg), "gen-lexicon", "--type", "Zip",
                        "--out", str(out)] + flags) == 0
            assert run(["gen-lexicon", "--type", "Zip", "--out", str(ref)]
                       + same_as) == 0
            assert out.read_text() == ref.read_text()
            assert len(out.read_text().splitlines()) == int(same_as[1])

    def test_section_pool_matches_registry(self, tmp_path):
        # A patterns section (no weights: equal weights) becomes the same
        # pool in gen-lexicon as in the registry.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.ID]\npatterns =\n    [A-Z]{3}\n"
                       "    \\d{4}\ncount = 40\nseed = 6\n")
        out = tmp_path / "ids.txt"
        assert run(["--config", str(cfg), "gen-lexicon", "--type", "ID",
                    "--out", str(out)]) == 0
        args = cli.build_parser().parse_args(
            ["augment", "--in", "x", "--out", "y"])
        registry = cli._build_registry(args, load_config(cfg))
        assert tuple(out.read_text().splitlines()) == \
            registry.by_fine["ID"].entries

    def test_exhaustion_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.ID]\npatterns =\n    \\d{1}\n")
        code = run(["--config", str(cfg), "gen-lexicon", "--type", "ID",
                    "--count", "50", "--out", str(tmp_path / "ids.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAugmentCommand:
    def test_end_to_end(self, small_conll, tmp_path, capsys):
        out = tmp_path / "aug.conll"
        records = tmp_path / "records.jsonl"
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--alpha", "2", "--seed", "1",
                    "--records", str(records)]) == 0
        merged = phicon.read_conll(out)
        assert len(merged.documents) == 12 * 3
        assert records.read_text().count("\n") > 0

    def test_byte_identical_reruns(self, small_conll, tmp_path):
        out1, out2 = tmp_path / "a.conll", tmp_path / "b.conll"
        for out in (out1, out2):
            assert run(["augment", "--in", str(small_conll),
                        "--out", str(out), "--seed", "9"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_byte_identical(self, small_conll, tmp_path):
        # augment runs serially: three reruns write the same corpus and
        # the same records.
        outputs = []
        for i in range(3):
            out, records = tmp_path / f"{i}.conll", tmp_path / f"{i}.jsonl"
            assert run(["augment", "--in", str(small_conll), "--out", str(out),
                        "--seed", "9", "--records", str(records)]) == 0
            outputs.append((out.read_bytes(), records.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_below_one_is_usage_error(self, small_conll, tmp_path,
                                           capsys, jobs):
        # There is no --jobs flag: any value is an unrecognised argument.
        out = tmp_path / "aug.conll"
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_dry_run_writes_nothing(self, small_conll, tmp_path, capsys):
        out = tmp_path / "aug.conll"
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--dry-run"]) == 0
        assert not out.exists()
        assert "eligible" in capsys.readouterr().err

    def test_custom_lexicon_dir(self, tmp_path):
        # Fine-labeled corpus; lexicon files are named <FineType>.txt.
        fine = tmp_path / "fine.conll"
        assert run(["synth", "--site", "A", "--docs", "12", "--seed", "1",
                    "--out", str(fine)]) == 0
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "Patient.txt").write_text("Zebulon\n")
        out = tmp_path / "aug.conll"
        assert run(["augment", "--in", str(fine), "--out", str(out),
                    "--alpha", "1", "--seed", "1",
                    "--lexicon-dir", str(lexdir)]) == 0
        merged = phicon.read_conll(out)
        patients = {s.surface for doc in merged.documents if "#aug" in doc.id
                    for sent in doc.sentences
                    for s in phicon.extract_entities(sent)
                    if s.phi_type == "Patient"}
        assert patients == {"Zebulon"}

    def test_tsv_synonym_source(self, small_conll, tmp_path):
        tsv = tmp_path / "syn.tsv"
        tsv.write_text("stable\tadjective\tsteady\n"
                       "promptly\tadverb\t\n"
                       "brisk\tadjective\t\n")
        out = tmp_path / "aug.conll"
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--alpha", "1", "--seed", "1",
                    "--synonyms", str(tsv)]) == 0

    def test_wndb_synonym_source(self, small_conll, tmp_path):
        out = tmp_path / "aug.conll"
        wndb = os.path.join(DATA_DIR, "wndb")
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--alpha", "1", "--seed", "1",
                    "--synonyms", f"wndb:{wndb}"]) == 0


class TestModelCommands:
    def test_train_then_eval(self, small_conll, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert run(["train", "--in", str(small_conll),
                    "--model", str(model), "--epochs", "3"]) == 0
        assert run(["eval", "--model", str(model),
                    "--test", str(small_conll)]) == 0
        out = capsys.readouterr().out
        assert "micro-F1" in out

    def test_eval_bad_model_file(self, small_conll, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        assert run(["eval", "--model", str(bad),
                    "--test", str(small_conll)]) == 1

    def test_eval_unknown_feature_template(self, small_conll, tmp_path,
                                           capsys):
        model = tmp_path / "model.txt"
        assert run(["train", "--in", str(small_conll),
                    "--model", str(model), "--epochs", "1"]) == 0
        model.write_text(model.read_text().replace(
            "phicon-tagger 1 ft1", "phicon-tagger 1 ft2", 1))
        capsys.readouterr()
        assert run(["eval", "--model", str(model),
                    "--test", str(small_conll)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestExperimentCommands:
    @pytest.fixture
    def two_sites(self, tmp_path):
        a = tmp_path / "a.conll"
        b = tmp_path / "b.conll"
        run(["synth", "--site", "A", "--docs", "15", "--seed", "1",
             "--coarse", "--out", str(a)])
        run(["synth", "--site", "B", "--docs", "15", "--seed", "2",
             "--coarse", "--out", str(b)])
        return a, b

    def test_xeval(self, two_sites, tmp_path, capsys):
        a, b = two_sites
        records = tmp_path / "r.jsonl"
        assert run(["xeval", "--train", str(a), "--test", str(b),
                    "--seeds", "1", "--epochs", "2", "--alpha", "1",
                    "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "phicon" in out
        assert records.exists()

    @pytest.mark.parametrize("argv", [
        ["xeval", "--test", "{b}"], ["ablate", "--test", "{b}"],
        ["sweep", "--dev", "{b}"]])
    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_jobs_below_one_is_usage_error(self, two_sites, capsys, argv,
                                           jobs):
        # There is no --jobs flag: any value is an unrecognised argument.
        a, b = two_sites
        argv = [arg.format(b=b) for arg in argv]
        assert run(argv + ["--train", str(a), "--seeds", "1", "--epochs", "1",
                           "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs" in err
        assert "Traceback" not in err

    def test_xeval_duplicate_arm_is_domain_error(self, two_sites, capsys):
        a, b = two_sites
        assert run(["xeval", "--train", str(a), "--test", str(b),
                    "--arms", "baseline,baseline", "--seeds", "1"]) == 1
        assert "unique" in capsys.readouterr().err

    def test_xeval_unknown_arm(self, two_sites):
        a, b = two_sites
        assert run(["xeval", "--train", str(a), "--test", str(b),
                    "--arms", "nonsense", "--seeds", "1"]) == 1

    def test_sweep(self, two_sites, capsys):
        a, b = two_sites
        assert run(["sweep", "--train", str(a), "--dev", str(b),
                    "--alphas", "0,1", "--seeds", "1", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "0" in out

    def test_ablate(self, two_sites, capsys):
        a, b = two_sites
        assert run(["ablate", "--train", str(a), "--test", str(b),
                    "--seeds", "1", "--epochs", "1", "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        for arm in ("baseline", "phi_only", "context_only", "phicon"):
            assert arm in out

    def test_ablate_is_xeval_with_four_arms(self, two_sites, capsys):
        a, b = two_sites
        common = ["--train", str(a), "--test", str(b), "--seeds", "2",
                  "--epochs", "1", "--alpha", "1", "--fraction", "0.5"]
        assert run(["ablate"] + common) == 0
        ablate = capsys.readouterr().out
        assert run(["xeval", "--arms", "baseline,phi_only,context_only,phicon"]
                   + common) == 0
        assert capsys.readouterr().out == ablate

    def test_arm_keeps_disabled_base_component(self, two_sites, tmp_path,
                                               capsys):
        # context_only switches PHI off and keeps the config's SR switch
        # (off here) in ablate as in xeval.
        a, b = two_sites
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[augment]\nenable_sr = false\n")
        common = ["--train", str(a), "--test", str(b), "--seeds", "2",
                  "--epochs", "1", "--alpha", "1"]
        rows = {}
        for argv in (["ablate"], ["xeval", "--arms", "context_only"]):
            assert run(["--config", str(cfg)] + argv + common) == 0
            rows[argv[0]] = [line for line in capsys.readouterr().out
                             .splitlines() if line.startswith("context_only")]
        assert rows["ablate"] == rows["xeval"] and len(rows["xeval"]) == 1


class TestExitContract:
    """Bad flag values are usage errors (exit 2) and bad files domain errors
    (exit 1); neither ends in a traceback or writes output."""

    @pytest.mark.parametrize("argv,config,code", [
        (["augment", "--in", "{corpus}", "--out", "{out}", "--alpha", "-1"],
         None, 2),
        (["augment", "--in", "{corpus}", "--out", "{out}", "--sr-rate", "2"],
         None, 2),
        (["split", "--in", "{corpus}", "--out-prefix", "{out}",
          "--ratios", "a,b,c"], None, 2),
        (["sweep", "--train", "{corpus}", "--dev", "{corpus}",
          "--alphas", "1,x"], None, 2),
        (["augment", "--in", "{corpus}", "--out", "{out}"],
         "[augment]\nalpha = two\n", 1),
        (["augment", "--in", "{corpus}", "--out", "{out}"],
         "alpha = 2\n", 1),
        (["augment", "--in", "{latin1}", "--out", "{out}"], None, 1),
        (["synth", "--site", "A", "--docs", "0", "--out", "{out}"], None, 2),
        (["synth", "--site", "A", "--min-sentences", "0", "--out", "{out}"],
         None, 2),
        (["train", "--in", "{corpus}", "--model", "{out}", "--epochs", "0"],
         None, 2),
        (["xeval", "--train", "{corpus}", "--test", "{corpus}",
          "--seeds", "0"], None, 2),
        (["ablate", "--train", "{corpus}", "--test", "{corpus}",
          "--epochs", "0"], None, 2),
        (["sweep", "--train", "{corpus}", "--dev", "{corpus}",
          "--seeds", "0"], None, 2),
        (["sweep", "--train", "{corpus}", "--dev", "{corpus}",
          "--epochs", "0"], None, 2),
        (["xeval", "--train", "{corpus}", "--test", "{corpus}",
          "--fraction", "0"], None, 2),
        (["ablate", "--train", "{corpus}", "--test", "{corpus}",
          "--fraction", "1.5"], None, 2),
        (["xeval", "--train", "{corpus}", "--test", "{corpus}"],
         "[experiment]\nn_seeds = 0\n", 1),
        (["sweep", "--train", "{corpus}", "--dev", "{corpus}"],
         "[experiment]\nepochs = 0\n", 1),
    ], ids=["alpha", "sr-rate", "ratios", "alphas", "config-value",
            "config-no-section", "non-utf8-input", "synth-docs",
            "synth-min-sentences", "train-epochs", "xeval-seeds",
            "ablate-epochs", "sweep-seeds", "sweep-epochs", "fraction-0",
            "fraction-1.5", "config-n-seeds", "config-epochs"])
    def test_bad_value_or_file(self, small_conll, tmp_path, capsys, argv,
                               config, code):
        latin1 = tmp_path / "latin1.conll"
        latin1.write_bytes("#doc id=a\nJos\xe9\tB-NAME\n\n".encode("latin-1"))
        paths = {"corpus": small_conll, "latin1": latin1,
                 "out": tmp_path / "out"}
        argv = [arg.format(**paths) for arg in argv]
        if config is not None:
            (tmp_path / "cfg.ini").write_text(config)
            argv = ["--config", str(tmp_path / "cfg.ini")] + argv
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error:")
        else:
            assert "error: argument" in lines[-1]
        assert sorted(os.listdir(tmp_path)) == before


def _ref_build_registry(seed, lexicon_dir, generators):
    """The two-step registry construction that one builtin_registry call
    replaced: builtin pools with count-only sizes, then a second registry
    with lexicon-dir files and pattern generators swapped in."""
    from importlib import resources
    from phicon import builtin
    counts = {t: g["count"] for t, g in generators.items() if g["count"]}
    sizes = dict(builtin.DEFAULT_BUILTIN_COUNTS, **counts)
    by_fine = {}
    for phi_type, filename in builtin._POOL_FILES.items():
        with resources.as_file(builtin._data_path(filename)) as path:
            by_fine[phi_type] = phicon.load_lexicon(path, phi_type)
    for phi_type, spec in phicon.DEFAULT_GENERATOR_SPECS.items():
        by_fine[phi_type] = phicon.generate_identifiers(
            spec, sizes[phi_type], seed)
    for name in sorted(os.listdir(lexicon_dir)):
        if name.endswith(".txt"):
            by_fine[name[:-4]] = phicon.load_lexicon(
                os.path.join(lexicon_dir, name), name[:-4])
    for phi_type, g in generators.items():
        if g["patterns"]:
            spec = phicon.GeneratorSpec(
                phi_type, g["patterns"],
                g["weights"] or (1.0,) * len(g["patterns"]))
            by_fine[phi_type] = phicon.generate_identifiers(
                spec, counts.get(phi_type, 2000), g["seed"])
    return phicon.LexiconRegistry(by_fine)


class TestBuildRegistry:
    def _args(self, lexicon_dir=None, seed=4):
        return cli.build_parser().parse_args(
            ["augment", "--in", "x", "--out", "y", "--seed", str(seed)]
            + (["--lexicon-dir", str(lexicon_dir)] if lexicon_dir else []))

    def test_matches_two_step_reference(self, tmp_path):
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "Patient.txt").write_text("Zebulon\nQuincy\n")
        (lexdir / "Zip.txt").write_text("00000\n")   # a pattern section wins
        (lexdir / "Date.txt").write_text("Yesterday\n")  # beats count-only
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.Zip]\npatterns =\n    9\\d{4}\ncount = 300\n"
                       "[generator.Username]\npatterns =\n    u\\d{4}\n"
                       "[generator.Phone]\ncount = 50\n"
                       "[generator.Date]\ncount = 60\n")
        registry = cli._build_registry(self._args(lexdir), load_config(cfg))
        reference = _ref_build_registry(4, lexdir, {
            "Zip": {"patterns": (r"9\d{4}",), "weights": (), "count": 300,
                    "seed": 0},
            "Username": {"patterns": (r"u\d{4}",), "weights": (),
                         "count": None, "seed": 0},
            "Phone": {"patterns": (), "weights": (), "count": 50, "seed": 0},
            "Date": {"patterns": (), "weights": (), "count": 60, "seed": 0}})
        assert registry.by_fine == reference.by_fine
        assert list(registry.by_fine) == list(reference.by_fine)
        assert registry.by_fine["Patient"].entries == ("Zebulon", "Quincy")
        assert len(registry.by_fine["Zip"]) == 300
        assert len(registry.by_fine["Phone"]) == 50

    def test_default_is_builtin_registry(self):
        assert cli._build_registry(self._args(seed=3), {}).by_fine == \
            phicon.builtin_registry(seed=3).by_fine

    def test_count_only_section_applies_alone(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.Phone]\ncount = 50\n")
        registry = cli._build_registry(self._args(), load_config(cfg))
        assert registry.by_fine["Phone"] == phicon.generate_identifiers(
            phicon.DEFAULT_GENERATOR_SPECS["Phone"], 50, 4)

    def test_one_registry_per_build(self, tmp_path, monkeypatch):
        built = []
        real = phicon.LexiconRegistry.__post_init__
        monkeypatch.setattr(phicon.LexiconRegistry, "__post_init__",
                            lambda self: built.append(real(self)))
        lexdir = tmp_path / "lex"
        lexdir.mkdir()
        (lexdir / "Patient.txt").write_text("Zebulon\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[generator.Zip]\npatterns =\n    9\\d{4}\n")
        cli._build_registry(self._args(lexdir), load_config(cfg))
        assert len(built) == 1


# Random command lines and config files for the fast subcommands: whatever
# they hold, the exit code is 0, 1 or 2 and nothing raises.
_TEXT = st.text(alphabet="ab-,. =[]%\\\né", max_size=8)
_INT = st.integers(-3, 6).map(str)
_HEADER = st.sampled_from(["[augment]", "[paths]", "[experiment]",
                           "[generator.Zip]", "[generator.Patient]",
                           "[generator.Bogus]", "[mystery]", "[augment", ""])
_CONFIG_LINE = st.one_of(
    _HEADER,
    st.builds("{} = {}".format,
              st.sampled_from(["alpha", "sr_rate", "ri_rate", "seed",
                               "enable_sr", "drop_unchanged", "count",
                               "patterns", "weights", "n_seeds", "lexicon_dir",
                               "synonyms", "bogus"]),
              st.one_of(_INT, _TEXT, st.sampled_from(
                  ["0.5", "true", "two", "\\d{5}", "%(x)s", "1,x", "-1"]))),
    _TEXT)
_REQUIRED = {"stats": ["--in"], "split": ["--in", "--out-prefix"],
             "gen-lexicon": ["--type", "--out"], "augment": ["--in", "--out"]}
_OPTIONAL = {
    "stats": [],
    "split": ["--ratios", "--seed"],
    "gen-lexicon": ["--count", "--seed"],
    "augment": ["--records", "--alpha", "--sr-rate", "--ri-rate", "--seed",
                "--lexicon-dir", "--synonyms", "--jobs", "--dry-run"],
}


@st.composite
def _command_lines(draw, paths):
    value = {
        "--in": st.sampled_from([paths["corpus"]] * 3 + [
            paths["latin1"], paths["missing"], paths["dir"]]),
        "--out": st.sampled_from([paths["out"]] * 3 + [paths["dir"]]),
        "--records": st.just(paths["records"]),
        "--out-prefix": st.just(paths["prefix"]),
        "--lexicon-dir": st.sampled_from([paths["dir"], paths["missing"]]),
        "--type": st.sampled_from(["Zip", "Date", "Bogus"]),
        "--count": st.sampled_from(["-2", "7", "x"]),
        "--ratios": st.sampled_from(["0.7,0.1,0.2", "0.5,0.5", "a,b,c", ""]),
        "--synonyms": st.sampled_from(["builtin", paths["missing"], "wndb:"]),
    }
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    flags = _REQUIRED[command] + draw(
        st.lists(st.sampled_from(_OPTIONAL[command]), unique=True)
        if _OPTIONAL[command] else st.just([]))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag != "--dry-run":
            argv.append(draw(value.get(flag, st.one_of(_INT, _TEXT))))
    if command == "gen-lexicon" and "--count" not in argv:
        argv += ["--count", "5"]  # the default counts take long to generate
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_TEXT))
    if draw(st.booleans()):
        argv = ["--config", paths["config"]] + argv
    return argv


@pytest.fixture(scope="module")
def property_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    corpus = root / "tiny.conll"
    corpus.write_text("#doc id=a\nJohn\tB-NAME\nsaw\tO\nBoston\tB-LOCATION\n"
                      "\n#doc id=b\nCall\tO\n555-1234\tB-CONTACT\n\n"
                      "#doc id=c\nDr\tO\nSmith\tB-NAME\n\n")
    (root / "latin1.conll").write_bytes(b"#doc id=a\nJos\xe9\tB-NAME\n\n")
    (root / "dir").mkdir()
    names = {"corpus": "tiny.conll", "latin1": "latin1.conll",
             "missing": "missing.conll", "dir": "dir", "out": "out.conll",
             "records": "records.jsonl", "prefix": "part",
             "config": "cfg.ini"}
    return root, {k: str(root / v) for k, v in names.items()}


@settings(max_examples=50, deadline=None)
@given(data=st.data(), header=_HEADER,
       config=st.lists(_CONFIG_LINE, max_size=5))
def test_property_exit_code_and_no_traceback(property_paths, data, header,
                                             config):
    root, paths = property_paths
    with open(paths["config"], "w", encoding="utf-8") as f:
        f.write("\n".join([header] + config) + "\n")
    argv = data.draw(_command_lines(paths))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # a stray relative path lands in the scratch directory
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Random one-line edits of a saved model file: whatever they leave, the file
# either loads to a model that save_model writes back byte for byte, or it is
# rejected, and eval then prints one error line.
_MODEL_TEXT = st.text(alphabet="ab\t =.-019eOBI", max_size=6)


@st.composite
def _edited_model(draw, lines):
    """The saved model's text with one line deleted, duplicated or
    replaced, or cut short."""
    text = "".join(lines)
    edit = draw(st.sampled_from(["delete", "duplicate", "replace", "cut"]))
    if edit == "cut":
        return text[:draw(st.integers(0, len(text)))]
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if edit == "delete":
        new = []
    elif edit == "duplicate":
        new = [line, line]
    else:  # another line, new text, or a few characters of it changed
        j = draw(st.integers(0, len(line)))
        new = [draw(st.one_of(
            st.sampled_from(lines), _MODEL_TEXT.map(lambda s: s + "\n"),
            _MODEL_TEXT.map(lambda s: line[:j] + s + line[j + 1:])))]
    return "".join(lines[:i] + new + lines[i + 1:])


@pytest.fixture(scope="module")
def saved_model_lines(property_paths):
    root, paths = property_paths
    model = root / "model.txt"
    assert run(["train", "--in", paths["corpus"], "--model", str(model),
                "--epochs", "2"]) == 0
    return model.read_text(encoding="utf-8").splitlines(keepends=True)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_model_file_loads_exactly_or_is_rejected(
        property_paths, saved_model_lines, data):
    root, paths = property_paths
    path, resaved = root / "edited.txt", root / "resaved.txt"
    path.write_bytes(data.draw(_edited_model(saved_model_lines)).encode())
    try:
        model = phicon.load_model(path)
    except phicon.ModelFormatError:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["eval", "--model", str(path),
                        "--test", paths["corpus"]])
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1, err.getvalue()
        assert lines[0].startswith("error:")
    else:
        phicon.save_model(model, resaved)
        assert resaved.read_bytes() == path.read_bytes()
