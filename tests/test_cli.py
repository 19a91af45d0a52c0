import os
import re

import pytest

import phicon
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
        assert config["generators"]["Zip"]["patterns"] == (r"\d{5}",)
        assert config["generators"]["Zip"]["count"] == 1000

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
        out1, out2 = tmp_path / "a.conll", tmp_path / "b.conll"
        run(["augment", "--in", str(small_conll), "--out", str(out1),
             "--seed", "9", "--jobs", "1"])
        run(["augment", "--in", str(small_conll), "--out", str(out2),
             "--seed", "9", "--jobs", "4"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, small_conll, tmp_path,
                                           capsys, jobs):
        out = tmp_path / "aug.conll"
        assert run(["augment", "--in", str(small_conll), "--out", str(out),
                    "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "Traceback" not in err
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
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, two_sites, capsys, argv,
                                           jobs):
        a, b = two_sites
        argv = [arg.format(b=b) for arg in argv]
        assert run(argv + ["--train", str(a), "--seeds", "1", "--epochs", "1",
                           "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "Traceback" not in err

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
