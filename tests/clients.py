"""The client axis of the test matrices.

A query runs on the thread that issued it; what runs concurrently is
*clients* — serving threads sharing one catalog, one buffer pool and
one plan cache, each running its own statements.  :func:`run_clients`
starts ``n`` of them on one callable at once, so a test can hold every
client's answer to the single-client one.
"""

import threading


def run_clients(clients, work):
    """Call ``work()`` on ``clients`` threads released together and
    return their results in thread order; the first error re-raises.
    One client is the calling thread itself."""
    if clients == 1:
        return [work()]
    start = threading.Barrier(clients, timeout=30)
    results = [None] * clients
    failures = []

    def client(index):
        try:
            start.wait()
            results[index] = work()
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a client did not finish"
    if failures:
        raise failures[0]
    return results
