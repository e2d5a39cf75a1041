"""Tests for deterministic random streams."""

from repro.simnet import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        a = RandomStreams(42).stream("loss").random(5)
        b = RandomStreams(42).stream("loss").random(5)
        assert (a == b).all()

    def test_streams_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(7)
        first = s1.stream("main").random(3)

        s2 = RandomStreams(7)
        s2.stream("other")          # extra consumer created first
        second = s2.stream("main").random(3)
        assert (first == second).all()

    def test_seed_changes_draws(self):
        a = RandomStreams(1).stream("x").random(4)
        b = RandomStreams(2).stream("x").random(4)
        assert not (a == b).all()


class TestDerive:
    def test_single_name_matches_stream_mapping(self):
        from repro.simnet.random import derived_generator

        via_streams = RandomStreams(42).stream("loss").random(5)
        via_derive = derived_generator(42, "loss").random(5)
        assert (via_streams == via_derive).all()

    def test_path_components_are_distinct(self):
        from repro.simnet.random import derived_generator

        flat = derived_generator(0, "a/b").random(4)
        nested = derived_generator(0, "a", "b").random(4)
        swapped = derived_generator(0, "b", "a").random(4)
        assert not (flat == nested).all()
        assert not (nested == swapped).all()

    def test_stable_across_instances(self):
        from repro.simnet.random import derive

        one = derive(3, "flaky", "a<->b")
        two = derive(3, "flaky", "a<->b")
        assert one.entropy == two.entropy
        assert one.spawn_key == two.spawn_key

    def test_seed_and_name_both_matter(self):
        from repro.simnet.random import derived_generator

        base = derived_generator(1, "x").random(4)
        other_seed = derived_generator(2, "x").random(4)
        other_name = derived_generator(1, "y").random(4)
        assert not (base == other_seed).all()
        assert not (base == other_name).all()
