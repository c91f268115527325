"""A helper for tests that need a RunReport holding a given log."""

from curebo.records import RunReport


def logged(evaluations, threshold):
    """A fresh RunReport(threshold) that has logged evaluations in order."""
    report = RunReport(threshold)
    for e in evaluations:
        report.log(e)
    return report
