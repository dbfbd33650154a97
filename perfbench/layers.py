"""Which reillylab callables the traced run wraps, and the per-layer
metrics read from the spans and counts they record.

Each target names the module whose binding the caller looks up: a
function imported with ``from .x import y`` is wrapped in the importing
module, a method on its class.
"""

from spans import Target

ARPACK = "scipy.sparse.linalg._eigen.arpack.arpack"


def _mesh_size(tracer, mesh):
    tracer.count("mesh.vertices", mesh.vertex_count)
    tracer.count("mesh.triangles", mesh.triangle_count)


def _off_size(tracer, loaded):
    points, triangles = loaded
    tracer.count("mesh.vertices", len(points))
    tracer.count("mesh.triangles", len(triangles))


def _stiffness_nnz(tracer, forms):
    tracer.count("fem.nnz", forms[0].nnz)


def _backend(tracer, spectrum):
    tracer.count({"fem-dense": "spectra.dense_calls",
                  "fem-arpack": "spectra.arpack_calls"}.get(
                      spectrum.backend, "spectra.other_calls"))


def _iterations(tracer, result):
    tracer.count("balance.iterations", result.iterations)


TARGETS = (
    Target("mesh", "reillylab.reports", "mesh_for", hook=_mesh_size),
    Target("mesh", "reillylab.cli", "mesh_for", hook=_mesh_size),
    Target("mesh", "reillylab.cli", "load_off", hook=_off_size),
    Target("immersion.frame_at", "reillylab.immersion",
           "ParametricImmersion.frame_at"),
    Target("fem.geometry", "reillylab.fem", "DiscreteGeometry.__init__"),
    Target("fem.assemble", "reillylab.reports", "assemble_forms",
           hook=_stiffness_nnz),
    Target("newton.tensor", "reillylab.reports", "newton_tensor"),
    Target("spectra.solve", "reillylab.reports", "solve_pencil",
           hook=_backend),
    Target("spectra.factor", ARPACK, "splu"),
    Target("spectra.opinv.calls", ARPACK, "SpLuInv._matvec", kind="count"),
    # the FEM workloads call the public reillylab.fem_report
    Target("reports", "reillylab", "fem_report"),
    Target("reports", "reillylab.reports", "fem_report"),
    Target("reports", "reillylab.reports", "closed_form_report"),
    Target("reports", "reillylab.cli", "mean_tensor_report"),
    Target("identities.suite", "reillylab.cli", "identity_suite"),
    Target("balance", "reillylab.cli", "balance_measure", hook=_iterations),
    Target("moebius.gamma_calls", "reillylab.balance", "gamma_value",
           kind="count"),
    Target("cli", "reillylab.cli", "main"),
)


def layer_values(op):
    """Every per-layer metric of one operation, from ``spans.per_operation``.

    "self" metrics subtract the time of wrapped children; "process" is a
    child interpreter's start-up, imports and exit around ``cli.main``.
    """
    total, own = op["total"], op["self"]
    calls, counts = op["calls"], op["counts"]
    return {
        "mesh.s": total.get("mesh", 0.0),
        "mesh.vertices": counts.get("mesh.vertices", 0),
        "mesh.triangles": counts.get("mesh.triangles", 0),
        "immersion.frame_at.s": total.get("immersion.frame_at", 0.0),
        "immersion.frame_at.calls": calls.get("immersion.frame_at", 0),
        "fem.geometry.self_s": own.get("fem.geometry", 0.0),
        "fem.assemble.self_s": own.get("fem.assemble", 0.0),
        "fem.nnz": counts.get("fem.nnz", 0),
        "newton.tensor.s": total.get("newton.tensor", 0.0),
        "newton.tensor.calls": calls.get("newton.tensor", 0),
        "spectra.solve.s": total.get("spectra.solve", 0.0),
        "spectra.solve.calls": calls.get("spectra.solve", 0),
        "spectra.dense_calls": counts.get("spectra.dense_calls", 0),
        "spectra.arpack_calls": counts.get("spectra.arpack_calls", 0),
        "spectra.factor.s": total.get("spectra.factor", 0.0),
        "spectra.factor.calls": calls.get("spectra.factor", 0),
        "spectra.opinv.calls": counts.get("spectra.opinv.calls", 0),
        "reports.self_s": own.get("reports", 0.0),
        "identities.suite_s": total.get("identities.suite", 0.0),
        "balance.s": total.get("balance", 0.0),
        "balance.iterations": counts.get("balance.iterations", 0),
        "moebius.gamma_calls": counts.get("moebius.gamma_calls", 0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "process.self_s": own.get("process", 0.0),
        "op.self_s": own.get("op", 0.0),
        "op.s": total.get("op", 0.0),
        "self_sum_s": sum(own.values()),
    }
