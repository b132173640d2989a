"""workers.in_order: no call starts after a failed one."""
import time

import pytest

from coughmae import workers


@pytest.mark.parametrize("n_workers", [1, 2])
def test_in_order_starts_no_call_after_a_failed_one(n_workers):
    """Job 0 fails while the other workers' jobs still run and job n_workers
    waits in the queue: the queued jobs never call fn, and job 0's error
    reaches the consumer."""
    ran = []

    def job(i):
        ran.append(i)
        if i == 0:
            time.sleep(0.1)
            raise ValueError("job 0 failed")
        time.sleep(0.5)
        return i

    with pytest.raises(ValueError, match="job 0 failed"):
        with workers.in_order(job, range(4), n_workers) as results:
            for _ in results:
                pass
    assert sorted(ran) == list(range(n_workers))
