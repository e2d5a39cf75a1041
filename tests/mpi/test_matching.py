"""Unit tests for the two-sided matching engine (no simulation needed)."""

import pytest

from repro.mpi.errors import MatchingError
from repro.mpi.matching import MatchingQueues, MpiMessage, PostedRecv
from repro.mpi.status import ANY_SOURCE, ANY_TAG


def msg(source=0, tag=0, context_id=0, payload="x", sent_at=0.0):
    return MpiMessage(context_id=context_id, source=source, tag=tag,
                      payload=payload, nbytes=8, sent_at=sent_at,
                      arrived_at=sent_at + 1.0)


class TestPostFirst:
    def test_exact_match(self):
        queues = MatchingQueues()
        posted = queues.post(0, source=1, tag=5)
        assert not posted.done()
        assert queues.deliver(msg(source=1, tag=5)) is posted
        assert posted.done()

    def test_wrong_tag_goes_unexpected(self):
        queues = MatchingQueues()
        posted = queues.post(0, source=1, tag=5)
        assert queues.deliver(msg(source=1, tag=6)) is None
        assert not posted.done()
        assert len(queues.unexpected) == 1

    def test_wildcards(self):
        queues = MatchingQueues()
        any_any = queues.post(0, ANY_SOURCE, ANY_TAG)
        assert queues.deliver(msg(source=3, tag=9)) is any_any

    def test_posted_order_is_fifo(self):
        queues = MatchingQueues()
        first = queues.post(0, ANY_SOURCE, ANY_TAG)
        second = queues.post(0, ANY_SOURCE, ANY_TAG)
        assert queues.deliver(msg()) is first
        assert queues.deliver(msg()) is second

    def test_context_separation(self):
        queues = MatchingQueues()
        posted = queues.post(7, ANY_SOURCE, ANY_TAG)
        assert queues.deliver(msg(context_id=8)) is None
        assert not posted.done()
        assert queues.deliver(msg(context_id=7)) is posted


class TestMessageFirst:
    def test_unexpected_then_post(self):
        queues = MatchingQueues()
        queues.deliver(msg(source=2, tag=3, payload="early"))
        posted = queues.post(0, source=2, tag=3)
        assert posted.done()
        assert posted.message.payload == "early"
        assert not queues.unexpected

    def test_earliest_unexpected_wins(self):
        queues = MatchingQueues()
        queues.deliver(msg(source=1, tag=0, payload="first", sent_at=0.0))
        queues.deliver(msg(source=1, tag=0, payload="second", sent_at=1.0))
        posted = queues.post(0, ANY_SOURCE, 0)
        assert posted.message.payload == "first"

    def test_filter_by_source(self):
        queues = MatchingQueues()
        queues.deliver(msg(source=1, payload="from1"))
        queues.deliver(msg(source=2, payload="from2"))
        posted = queues.post(0, source=2, tag=0)
        assert posted.message.payload == "from2"
        assert queues.unexpected[0].payload == "from1"

    def test_max_unexpected_watermark(self):
        queues = MatchingQueues()
        for index in range(5):
            queues.deliver(msg(tag=index))
        assert queues.max_unexpected == 5


class TestMisc:
    def test_status_from_match(self):
        queues = MatchingQueues()
        posted = queues.post(0, ANY_SOURCE, ANY_TAG)
        queues.deliver(msg(source=4, tag=2, sent_at=10.0))
        status = posted.status(received_at=12.5)
        assert status.source == 4 and status.tag == 2
        assert (status.sent_at, status.received_at) == (10.0, 12.5)

    def test_status_before_match_rejected(self):
        posted = PostedRecv(0, ANY_SOURCE, ANY_TAG)
        with pytest.raises(MatchingError):
            posted.status(0.0)

    def test_matched_counter(self):
        queues = MatchingQueues()
        queues.post(0, ANY_SOURCE, ANY_TAG)
        queues.deliver(msg())
        queues.deliver(msg())
        queues.post(0, ANY_SOURCE, ANY_TAG)
        assert queues.messages_matched == 2
