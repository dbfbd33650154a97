from hypothesis import settings

# one profile for every property test: reproducible draws, no per-example
# deadline (a draw assembles and solves a mesh), three examples each
settings.register_profile("reillylab", derandomize=True, deadline=None,
                          max_examples=3)
settings.load_profile("reillylab")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for key, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL")):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "test_criterion" in nodeid:
                rows.append((nodeid.split("::")[-1], verdict))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(set(rows)):
            terminalreporter.write_line("%-64s %s" % (name, verdict))
