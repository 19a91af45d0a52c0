"""The benchmark's workloads: inputs made from a seed, one op, its checks.

Each workload builds its inputs in ``setup`` from the workload seed, runs
one ``op`` (the only timed call) and checks that op's output in
``outcome``. Only public phicon functions and CLI flags are used, and no
``--jobs``, so later refactors of private code cannot break the benchmark.

Seed 0 reproduces the acceptance fixture of ``tests/test_acceptance.py``:
SiteA seed 11, SiteB seed 22, split seed 5, registry seed 3. Seed n shifts
each of them by n.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass

import phicon
import phicon.cli
import phicon.evaluate


class CheckFailed(Exception):
    """An op's output broke one of the workload's checks."""


@dataclass(frozen=True)
class Outcome:
    digest: str  # sha256 of the op's output bytes
    quality: dict  # F1 figures the op produced, by metric name


def fixture_seeds(seed: int) -> dict:
    return {"site_a": 11 + seed, "site_b": 22 + seed, "split": 5 + seed,
            "registry": 3 + seed}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _site_train(seed: int, docs: int, coarse: bool):
    """SiteA (fine or coarse labels) and its 70 % training split."""
    seeds = fixture_seeds(seed)
    profile_a, _ = phicon.builtin_profiles()
    corpus = phicon.generate_corpus(profile_a, docs, (8, 15),
                                    seed=seeds["site_a"])
    if coarse:
        corpus = phicon.map_to_coarse(corpus)
    train, _, _ = phicon.split_corpus(corpus, (0.7, 0.1, 0.2),
                                      seed=seeds["split"])
    return train


def _site_b(seed: int, docs: int, coarse: bool):
    _, profile_b = phicon.builtin_profiles()
    corpus = phicon.generate_corpus(profile_b, docs, (8, 15),
                                    seed=fixture_seeds(seed)["site_b"])
    return phicon.map_to_coarse(corpus) if coarse else corpus


def _cli(argv) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = phicon.cli.run(argv)
    return code, out.getvalue()


def _same_as_first(state: dict, digest: str) -> bool:
    """True when an earlier op of this run already passed the full check
    with these bytes; a different digest breaks the determinism contract."""
    first = state.get("checked_digest")
    if first is None:
        return False
    _require(digest == first,
             "output bytes differ from the first op of this run")
    return True


@dataclass(frozen=True)
class Headline:
    """The acceptance protocol: SiteA-train -> SiteB, paired seeds."""

    name: str = "headline"
    docs: int = 200
    fractions: tuple = (0.2, 1.0)
    n_seeds: int = 5
    epochs: int = 5
    alpha: int = 2
    warmup: int = 0  # one op is long enough to fill every cache
    setup_in_child: bool = False  # the op needs the in-memory corpora

    def setup(self, seed: int, workdir: str) -> dict:
        train = _site_train(seed, self.docs, coarse=True)
        test = _site_b(seed, self.docs, coarse=True)
        registry = phicon.builtin_registry(seed=fixture_seeds(seed)["registry"])
        provider = phicon.builtin_provider()
        return {"train": train, "test": test, "registry": registry,
                "provider": provider,
                "tokens": train.token_count() + test.token_count()}

    def op(self, state: dict):
        arms = [("baseline", None),
                ("phicon", phicon.AugmentConfig(alpha=self.alpha))]
        return [phicon.cross_dataset_eval(
                    state["train"], state["test"], arms, train_fraction=f,
                    n_seeds=self.n_seeds, epochs=self.epochs,
                    registry=state["registry"], provider=state["provider"])
                for f in self.fractions]

    def outcome(self, state: dict, results) -> Outcome:
        lines = []
        for result in results:
            lines.extend(phicon.evaluate.experiment_records(result))
        digest = _sha256("\n".join(lines).encode("utf-8"))
        if not _same_as_first(state, digest):
            state["quality"] = self._check(results)
            state["checked_digest"] = digest
        return Outcome(digest, state["quality"])

    def _check(self, results) -> dict:
        for result in results:
            f = result.train_fraction
            for arm, mean in result.means.items():
                _require(0.0 <= mean <= 1.0,
                         f"fraction {f}: {arm} mean F1 {mean} outside [0, 1]")
            _require(result.means["phicon"] > result.means["baseline"],
                     f"fraction {f}: phicon {result.means['phicon']:.4f} does "
                     f"not beat baseline {result.means['baseline']:.4f}")
        return {
            "evaluate.f1_baseline": _mean(r.means["baseline"] for r in results),
            "evaluate.f1_phicon": _mean(r.means["phicon"] for r in results),
        }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


@dataclass(frozen=True)
class AugmentFine:
    """``phicon augment`` on a fine-labelled SiteA training split."""

    name: str = "augment_fine"
    docs: int = 200
    alpha: int = 8  # large enough that augmentation outweighs CLI start-up
    warmup: int = 1
    setup_in_child: bool = True  # keeps set-up out of the op's peak RSS

    def setup(self, seed: int, workdir: str) -> dict:
        train = _site_train(seed, self.docs, coarse=False)
        paths = {k: os.path.join(workdir, f"augment_fine.{k}")
                 for k in ("in", "out", "records")}
        phicon.write_conll(train, paths["in"])
        return {"paths": paths, "tokens": train.token_count(),
                "registry_seed": fixture_seeds(seed)["registry"]}

    def op(self, state: dict):
        p = state["paths"]
        return _cli(["augment", "--in", p["in"], "--out", p["out"],
                     "--records", p["records"], "--alpha", str(self.alpha),
                     "--seed", str(state["registry_seed"])])

    def outcome(self, state: dict, raw) -> Outcome:
        code, _ = raw
        _require(code == 0, f"phicon augment exited {code}")
        p = state["paths"]
        with open(p["out"], "rb") as f:
            out_bytes = f.read()
        with open(p["records"], "rb") as f:
            records_bytes = f.read()
        digest = _sha256(out_bytes, records_bytes)
        if not _same_as_first(state, digest):
            self._check(state, out_bytes, records_bytes)
            state["checked_digest"] = digest
        return Outcome(digest, {})

    def _check(self, state, out_bytes: bytes, records_bytes: bytes) -> None:
        source = phicon.read_conll(state["paths"]["in"])
        try:
            merged = phicon.parse_conll(out_bytes.decode("utf-8"),
                                        repair=False)
        except phicon.PhiconError as e:
            raise CheckFailed(f"output does not re-parse strictly: {e}")
        n = len(source.documents)
        _require(merged.documents[:n] == source.documents,
                 "original documents are not first and unchanged")
        records = [json.loads(line)
                   for line in records_bytes.decode("utf-8").splitlines()]
        augmented = sum(len(d.sentences) for d in merged.documents[n:])
        _require(len(records) == augmented,
                 f"{len(records)} records for {augmented} augmented sentences")
        registry = phicon.builtin_registry(seed=state["registry_seed"])
        pools: dict[str, frozenset] = {}
        for rec in records:
            for _, _, phi_type, _, new_surface in rec["replacements"]:
                if phi_type not in pools:
                    pools[phi_type] = frozenset(
                        phicon.registry_resolve(registry, phi_type).entries)
                _require(new_surface in pools[phi_type],
                         f"replacement {new_surface!r} is not in the "
                         f"{phi_type} lexicon")


_F1_LINE = re.compile(r"micro-F1: ([0-9.]+)")


@dataclass(frozen=True)
class TagFine:
    """``phicon eval`` of a fine-labelled SiteA model on a large SiteB."""

    name: str = "tag_fine"
    train_docs: int = 200
    test_docs: int = 500  # several times the training split
    epochs: int = 5
    warmup: int = 1
    setup_in_child: bool = True  # keeps set-up out of the op's peak RSS

    def setup(self, seed: int, workdir: str) -> dict:
        seeds = fixture_seeds(seed)
        train = _site_train(seed, self.train_docs, coarse=False)
        model = phicon.train(train, epochs=self.epochs, seed=seeds["registry"])
        test = _site_b(seed, self.test_docs, coarse=False)
        paths = {"model": os.path.join(workdir, "tag_fine.model"),
                 "test": os.path.join(workdir, "tag_fine.test.conll")}
        phicon.save_model(model, paths["model"])
        phicon.write_conll(test, paths["test"])
        return {"paths": paths, "tokens": test.token_count()}

    def op(self, state: dict):
        p = state["paths"]
        return _cli(["eval", "--model", p["model"], "--test", p["test"]])

    def outcome(self, state: dict, raw) -> Outcome:
        code, text = raw
        _require(code == 0, f"phicon eval exited {code}")
        digest = _sha256(text.encode("utf-8"))
        if not _same_as_first(state, digest):
            state["f1"] = self._check(state, text)
            state["checked_digest"] = digest
        return Outcome(digest, {"evaluate.f1": state["f1"]})

    def _check(self, state, text: str) -> float:
        match = _F1_LINE.search(text)
        _require(match is not None, "eval printed no micro-F1")
        p = state["paths"]
        gold = phicon.read_conll(p["test"])
        pred = phicon.predict_corpus(phicon.load_model(p["model"]), gold)
        sentences = list(gold.sentences())
        _require(len(pred) == len(sentences),
                 f"{len(pred)} predicted sentences for {len(sentences)}")
        for i, (sent, labels) in enumerate(zip(sentences, pred)):
            _require(len(labels) == len(sent),
                     f"sentence {i}: {len(labels)} labels for {len(sent)} "
                     "tokens")
            tagged = phicon.Sentence(tuple(
                phicon.Token(tok.text, lab)
                for tok, lab in zip(sent.tokens, labels)))
            _require(not phicon.validate_bio(tagged),
                     f"sentence {i}: prediction is not BIO-valid")
        f1 = phicon.binary_token_f1(gold, pred).micro_f1
        _require(0.0 <= f1 <= 1.0, f"micro-F1 {f1} outside [0, 1]")
        _require(match.group(1) == f"{f1:.4f}",
                 f"eval printed F1 {match.group(1)}, predictions give {f1:.4f}")
        return f1


WORKLOADS = {w.name: w for w in (Headline(), AugmentFine(), TagFine())}
