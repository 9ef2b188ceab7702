import pace


def test_a_slower_host_reads_the_same_at_the_reference_pace():
    assert pace.at_reference(1.0, pace.REFERENCE_S) == 1.0
    # the same operation on a host running at half speed: both times double
    assert pace.at_reference(2.0, 2 * pace.REFERENCE_S) == 1.0


def test_a_slower_program_still_reads_slower():
    assert pace.at_reference(1.5, pace.REFERENCE_S) > pace.at_reference(1.0, pace.REFERENCE_S)


def test_the_loop_takes_measurable_time():
    assert pace.sample() > 0.0
    assert pace.median_sample(3) > 0.0
