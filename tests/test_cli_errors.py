"""The CLI refuses bad ``fleet``/``traffic``/``secure``/``cra`` arguments
with the library's own message: one ``error: <message>`` line on stderr
and exit code 2."""

import math
import multiprocessing as mp

import pytest

from repro.__main__ import main
from repro import __main__ as cli
from repro.common.errors import CapacityError, NotFoundError
from repro.platform import build_genio_deployment
from repro.security.pipeline import SecurityPipeline
from repro.security.threatmodel.regulatory import assess_cra_readiness
from repro.traffic import fleet, run_traffic_experiment
from repro.traffic.fleet import run_fleet_parallel

# (argv, the library call the CLI makes for it, with the CLI's defaults)
REFUSED = [
    (["fleet", "--olts", "0"], lambda: run_fleet_parallel(n_olts=0)),
    (["fleet", "--tenants", "3", "--olts", "4"],
     lambda: run_fleet_parallel(n_olts=4, n_tenants=3)),
    (["fleet", "--olts", "1", "--tenants", "65"],
     lambda: run_fleet_parallel(n_olts=1, n_tenants=65)),
    (["fleet", "--seconds", "0"], lambda: run_fleet_parallel(seconds=0.0)),
    (["fleet", "--seconds", "nan"],
     lambda: run_fleet_parallel(seconds=math.nan)),
    (["fleet", "--seconds", "inf"],
     lambda: run_fleet_parallel(seconds=math.inf)),
    (["fleet", "--workers", "0"], lambda: run_fleet_parallel(workers=0)),
    (["traffic", "--tenants", "0"],
     lambda: run_traffic_experiment(n_tenants=0)),
    (["traffic", "--tenants", "64"],
     lambda: run_traffic_experiment(n_tenants=64)),
    (["traffic", "--seconds", "nan"],
     lambda: run_traffic_experiment(seconds=math.nan)),
    (["secure", "--olts", "0"], lambda: build_genio_deployment(n_olts=0)),
    (["secure", "--only", "M99"],
     lambda: SecurityPipeline(build_genio_deployment(n_olts=2)).apply(
         only=["M99"])),
    (["cra", "--mitigations", "M99"],
     lambda: assess_cra_readiness(["M99"])),
]


@pytest.mark.parametrize("argv, library_call", REFUSED,
                         ids=[" ".join(argv) for argv, _ in REFUSED])
def test_cli_prints_the_library_refusal_and_exits_2(argv, library_call,
                                                     capsys):
    with pytest.raises((ValueError, CapacityError)) as refusal:
        library_call()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {refusal.value}\n"


def test_a_bad_duration_starts_no_worker(monkeypatch, capsys):
    before = set(mp.active_children())
    assert main(["fleet", "--workers", "2", "--seconds", "nan"]) == 2
    assert set(mp.active_children()) == before

    def no_pool(*args, **kwargs):
        raise AssertionError("a shard pool was built")
    monkeypatch.setattr(fleet.ShardPool, "__init__", no_pool)
    with pytest.raises(ValueError, match="^duration must be positive"):
        run_fleet_parallel(seconds=math.nan, workers=2)


def test_a_full_splitter_refusal_gives_both_counts(capsys):
    # 64 well-behaved tenants plus the hostile one make 65 ONUs for the
    # 64 slots of an empty 1:64 splitter.
    assert main(["traffic", "--tenants", "64"]) == 2
    assert capsys.readouterr().err == ("error: port 0 splitter (1:64) is "
                                       "full: 65 ONUs for 64 free slots\n")


@pytest.mark.parametrize("fault", [KeyError("slot"), NotFoundError("x")],
                         ids=["KeyError", "NotFoundError"])
def test_an_internal_fault_is_not_a_refusal(fault, monkeypatch):
    # Only the library's documented refusals become exit code 2; any
    # other exception from a command propagates with its traceback.
    def broken(args):
        raise fault
    monkeypatch.setattr(cli, "_cmd_inventory", broken)
    with pytest.raises(type(fault)):
        main(["inventory"])
