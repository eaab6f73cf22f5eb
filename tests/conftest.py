import pytest

from cptgroup.verify import Context, run_all


def status_of(report, claim_id: str) -> str:
    """The status of the claim `claim_id` in `report`."""
    return next(s.status for s in report.sections if s.claim_id == claim_id)


@pytest.fixture(scope="session")
def ctx():
    return Context()


@pytest.fixture(scope="session")
def pipeline():
    """The fully-built context and verification report, shared."""
    return run_all()
