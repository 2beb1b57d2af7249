"""Golden outputs: the check reports of every benchmark spec, the
verdicts of a fixed twisted_ops job list, the classification
summaries of the classify_stream pool and the enumerations of 300
random lattices, hashed.

The inputs come from perfbench/workloads.py, read as it stands.  A
change that moves any report byte, exit code or verdict moves a hash;
one made on purpose updates the hash here and says why.
"""
import hashlib
import importlib.util
import json
import os
import random
import sys
import types

import twistlab
from twistlab import classify, cli, cocycle, fock, lattice

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

CHECK_REPORTS_SHA256 = (
    "516b65ce759df28746115b8d85948094f7cf148e664c527acfd3da46a7b7f2ab")
OPS_VERDICTS_SHA256 = (
    "ac5cd1450f9d214a872e5d7bc31a96535f15f417c343a5edbb08237ec0e18e4a")
CLASSIFY_SUMMARIES_SHA256 = (
    "d2f85ea72828067962794cb33dc211cbd3a328b886851330a0d2bf9252f4e051")
RANDOM_ENUMERATIONS_SHA256 = (
    "b34f3e76a03bb098f80586e996d4dbf64a0ec7fdb4281e54bbf0301477bbd5a5")


def _workloads():
    """perfbench/workloads.py as a module (it imports intmath from its
    own directory)."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "golden_workloads", os.path.join(PERFBENCH, "workloads.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(PERFBENCH)
    return mod


W = _workloads()
TL = types.SimpleNamespace(pkg=twistlab, classify=classify, cli=cli,
                           cocycle=cocycle, fock=fock, lattice=lattice)


def _sha256(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_check_reports_of_every_benchmark_spec(tmp_path):
    outputs = []
    for k, (gram, sigma, trunc) in enumerate(W.CHECK_SPECS):
        spec = {"gram": gram, "sigma": sigma, "trunc": trunc, "bound": 1}
        out = W.run_check_job(TL, spec, str(tmp_path), f"spec{k}")
        outputs.append([out["code"], out["report"]])
    assert len(outputs) == 75
    assert _sha256(outputs) == CHECK_REPORTS_SHA256


def test_twisted_ops_verdicts_seed_3():
    jobs = W.ops_inputs(random.Random(3), W.rounds_for("twisted_ops", 30))
    verdicts = [W.run_ops_job(TL, job) for job in jobs]
    assert len(verdicts) == 225
    assert _sha256(verdicts) == OPS_VERDICTS_SHA256


def test_classify_summaries_of_the_stream_pool():
    # one round of the classify_stream pool, unshuffled: the fixtures,
    # the random pool, then the known-fault lattices
    members = W.CLASSIFY_FIXTURES + W.classify_pool(TL) + W.KNOWN_FAULTS
    summaries = [
        W.summarize_classify(W.run_classify_job(TL, {"gram": g, "sigma": s}))
        for g, s in members]
    assert len(summaries) == 52
    assert _sha256(summaries) == CLASSIFY_SUMMARIES_SHA256


def test_enumerations_of_300_random_lattices():
    # the summary, the eta representatives and each admissible entry's
    # base weight xi0, exactly, for 300 draws of the benchmark's
    # random lattice generator
    rng = random.Random(4242)
    digests = []
    for _ in range(300):
        lat = W.random_twisted_lattice(rng, TL)
        res = classify.enumerate_simple_twisted(cocycle.TwistData(lat))
        digests.append([
            W.summarize_classify(res),
            [[str(x) for x in eta] for eta in res.eta_reps],
            [[str(x) for x in e.detail] if e.admissible else None
             for e in res.entries]])
    assert _sha256(digests) == RANDOM_ENUMERATIONS_SHA256
