"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has ended.  Inputs come from the seed only;
reillylab receives the generated inputs.

- ``sphere_l6``: ``fem_report`` on the unit sphere, identity operator,
  icosphere level 6, rigidly rotated by the seed.  Time goes to the
  frame layer and the eigensolver; assembly is bypassed (T = I).
- ``ellipsoid_newton0_l5``: ``fem_report`` on ``ellipsoid((1, 1, 1.3))``
  with ``newton:0`` at level 5, rotated by the seed.  The only workload
  where the tensor path of ``assemble_forms`` does most of the work.
- ``lab_session``: a fresh ``reillylab run`` process on the bundled
  equality scenarios (with balance, identities and a convergence sweep
  added), then a fresh ``reillylab balance`` process on a seeded
  off-centre OFF measure.  Many small problems plus process start-up.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import reillylab
from reillylab.immersion import PolynomialMap
from reillylab.moebius import MoebiusParam, gamma_value

HERE = Path(__file__).resolve().parent
BOOTSTRAP = HERE / "bootstrap.py"
REFERENCE_FILE = HERE / "reference.json"
LAB_CONFIG = HERE / "lab_session.json"

# seed-0 values must be reproduced to this relative accuracy; a rotation
# moves them by 1e-15 to 1e-12
REL_TOL = 1e-10
WARMUP_LEVEL = 2
BALANCE_LEVEL = 5
BALANCE_GNORM = 0.6


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def rotation(seed: int) -> np.ndarray:
    """Rigid rotation in SO(3) drawn from the seed; seed 0 gives I."""
    if seed == 0:
        return np.eye(3)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(immersion, q):
    """The immersion followed by x -> Q x, applied to the map coefficients."""
    m = immersion.mapping
    mapping = PolynomialMap(q @ m.a0, q @ m.a1,
                            np.einsum("mn,nij->mij", q, m.a2))
    return dataclasses.replace(immersion, mapping=mapping)


def relative(value, reference):
    return abs(value - reference) / abs(reference)


@dataclasses.dataclass
class FemWorkload:
    """One ``fem_report`` per operation on a seeded rotation of a surface."""

    name: str
    geometry: object  # () -> ParametricImmersion
    operator: str
    level: int

    def prepare(self, seed, workdir):
        imm = rotated(self.geometry(), rotation(seed))
        spec = reillylab.operator_from_label(self.operator)
        # loads every code path but ARPACK's on a 162-vertex mesh
        reillylab.fem_report(imm, spec, level=WARMUP_LEVEL)
        return imm, spec

    def run(self, state, tracer=None):
        imm, spec = state
        # looked up at call time so that the traced run's wrapper sees it
        return reillylab.fem_report(imm, spec, level=self.level)

    def check(self, report, reference):
        """(failures, facts) for one report against the pinned values."""
        ref = reference[self.name]
        failures = []
        if not (report.asserted and report.passed):
            failures.append("bound not asserted or not passed")
        for key in ("lambda2", "rhs"):
            err = relative(getattr(report, key), ref[key])
            if not err <= REL_TOL:
                failures.append("%s %.17g differs from pinned %.17g by %.3g"
                                % (key, getattr(report, key), ref[key], err))
        facts = {"lambda2_relerr": relative(report.lambda2,
                                            ref["lambda2_exact"])}
        return failures, facts


@dataclasses.dataclass
class LabState:
    seed: int
    workdir: Path
    config: Path
    measure: Path


@dataclasses.dataclass
class LabResult:
    outdir: Path
    exit_codes: dict
    stdout: dict
    stderr: dict
    maxrss_kb: int


def _spawn(argv, stdout_path, stderr_path):
    """Run argv with output to files; returns (exit code, child rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


class LabSession:
    """Two fresh command-line processes per operation: run, then balance."""

    name = "lab_session"

    def prepare(self, seed, workdir):
        config = workdir / "lab_session.json"
        shutil.copyfile(LAB_CONFIG, config)
        # off-centre measure: icosphere vertices moved by a Moebius map
        # with |g| = 0.6 in a direction drawn from the seed
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(3)
        param = MoebiusParam(BALANCE_GNORM * direction
                             / np.linalg.norm(direction))
        mesh = reillylab.icosphere(BALANCE_LEVEL)
        moved = np.array([gamma_value(param, y) for y in mesh.points])
        measure = workdir / "measure.off"
        reillylab.save_off(measure, moved, mesh.triangles)
        return LabState(seed, workdir, config, measure)

    def commands(self, state, outdir):
        return {
            "run": ["run", str(state.config), "--out", str(outdir / "run"),
                    "--seed", str(state.seed)],
            "balance": ["balance", str(state.measure), "--ambient", "sphere",
                        "--out", str(outdir / "balance")],
        }

    def run(self, state, tracer=None):
        outdir = Path(tempfile.mkdtemp(prefix="op-", dir=state.workdir))
        codes, stdout, stderr = {}, {}, {}
        maxrss = 0
        for step, cli_args in self.commands(state, outdir).items():
            out = outdir / (step + ".stdout")
            err = outdir / (step + ".stderr")
            argv = [sys.executable, str(BOOTSTRAP)]
            if tracer is None:
                codes[step], usage = _spawn(argv + cli_args, out, err)
            else:
                spans_file = outdir / (step + ".spans.json")
                with tracer.span("process") as sid:
                    codes[step], usage = _spawn(
                        argv + ["--trace", str(spans_file), str(tracer.op),
                                sid] + cli_args, out, err)
                if spans_file.exists():
                    with open(spans_file) as fh:
                        tracer.merge(json.load(fh))
            maxrss = max(maxrss, usage.ru_maxrss)
            stdout[step] = out.read_text()
            stderr[step] = err.read_text()
        return LabResult(outdir, codes, stdout, stderr, maxrss)

    def check(self, result, reference):
        """(failures, facts); removes the operation's output directory."""
        ref = reference[self.name]
        failures = []
        for step, code in result.exit_codes.items():
            if code != 0:
                failures.append("%s exited %d: %s" % (
                    step, code, result.stderr[step].strip()[-200:]))
        status = dict(line.split()[:2] for line in
                      result.stdout["run"].splitlines()
                      if len(line.split()) == 2)
        relerr = 0.0
        for name, pinned in ref["lambda2"].items():
            if status.get(name) != "ok":
                failures.append("scenario %s did not print ok" % name)
            try:
                with open(result.outdir / "run" / name / "report.json") as fh:
                    lam = json.load(fh)[0]["lambda2"]
            except (OSError, ValueError, LookupError) as exc:
                failures.append("scenario %s: no report: %s" % (name, exc))
                continue
            if not relative(lam, pinned) <= REL_TOL:
                failures.append("scenario %s lambda2 %.17g differs from "
                                "pinned %.17g" % (name, lam, pinned))
            exact = ref["lambda2_exact"].get(name)
            if exact is not None:
                relerr = max(relerr, relative(lam, exact))
        if "converged True" not in result.stdout["balance"]:
            failures.append("balance did not report converged True")
        written = sum(f.stat().st_size for f in result.outdir.rglob("*")
                      if f.is_file() and f.parent != result.outdir)
        shutil.rmtree(result.outdir, ignore_errors=True)
        return failures, {"lambda2_relerr": relerr,
                          "cli.bytes_written": written,
                          "child_maxrss_kb": result.maxrss_kb}


WORKLOADS = {
    "sphere_l6": FemWorkload(
        "sphere_l6", lambda: reillylab.sphere(2, 1.0, 1, 0.0), "identity", 6),
    "ellipsoid_newton0_l5": FemWorkload(
        "ellipsoid_newton0_l5", lambda: reillylab.ellipsoid((1.0, 1.0, 1.3)),
        "newton:0", 5),
    "lab_session": LabSession(),
}
