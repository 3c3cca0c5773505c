"""Cost laws as exact relations between counts of executed lines.

A line event is one source line of the knotcert package run once, as
sys.settrace reports it.  With one Python version the count is the same on
every run and every host, so a law stated on counts is a deterministic test
where wall-clock timing is not.  Python 3.10 to 3.13 report different line
events for the same code, so the tests assert relations between counts,
never absolute counts.

The count does not see big-integer cost: a line that multiplies two n-digit
integers is one event whatever n is, while its time grows with n.  Timing
stays the benchmark's job.

The laws stated here:
- certify_family runs a number of lines that is affine in the family
  length L and does not depend on the size of n, p or q.  Families are
  generated outside the trace.
- r_exact runs the same lines whatever the size of the multiplicities.
- With R's caches of pi and of the seeds warm, _cotangent_sum runs the same
  lines at 128 bits as at 2,048, and a cold call runs more: pi and the
  seeds are the only series whose length grows with the precision.
- compactness_check runs a number of lines that is affine in the number of
  boundary triples and does not depend on their digits.
- Forms are sign and size: build_Z runs the same lines for 3 crossings as
  for 10**300, and assemble_X the same lines for a coefficient of 1 as for
  10**300, as no dense form is built.
"""

import sys
from pathlib import Path

import knotcert
from knotcert import (
    BrieskornSphere,
    Family,
    SatelliteParams,
    assemble_X,
    build_Z,
    certify_family,
    compactness_check,
    generate_family,
    r_exact,
)
from knotcert.fs_invariant import _cotangent_sum, _pi, _seed

PACKAGE = str(Path(knotcert.__file__).parent)


def line_events(fn, *args) -> int:
    """Line events in the package's own frames while fn(*args) runs."""
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def certify_lines(start: SatelliteParams, length: int) -> int:
    return line_events(certify_family, generate_family(start, length))


def test_certify_lines_do_not_depend_on_the_digits_of_the_parameters():
    # The first member's p and q have 1, 21 and 301 digits; the generated
    # successors carry twist parameters of up to about 1,300 digits.
    starts = [
        SatelliteParams(2, 2, 3),
        SatelliteParams(2, 10**20 + 1, 10**20 + 2),
        SatelliteParams(2, 10**300 + 1, 10**300 + 2),
    ]
    counts = [certify_lines(start, 10) for start in starts]
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_certify_lines_are_affine_in_the_family_length():
    start = SatelliteParams(2, 2, 3)
    c5, c10, c20, c40 = (certify_lines(start, length) for length in (5, 10, 20, 40))
    per_member, remainder = divmod(c10 - c5, 5)
    assert remainder == 0 and per_member > 0
    assert c20 - c10 == 10 * per_member
    assert c40 - c20 == 20 * per_member


def test_r_exact_lines_do_not_depend_on_the_multiplicities():
    small = line_events(r_exact, BrieskornSphere(2, 3, 7))
    assert small > 0
    assert line_events(r_exact, BrieskornSphere(2, 3, 10**40 + 1)) == small


def test_warm_r_kernel_lines_do_not_depend_on_the_precision():
    for triple in ((2, 3, 7), (3, 5, 1001)):
        cold, warm = {}, {}
        for bits in (128, 2048):
            _pi.cache_clear()
            _seed.cache_clear()
            cold[bits] = line_events(_cotangent_sum, *triple, bits)
            warm[bits] = line_events(_cotangent_sum, *triple, bits)
            assert cold[bits] > warm[bits] > 0, (triple, bits)
        assert warm[128] == warm[2048], triple


def compactness_lines(digits: int, count: int) -> int:
    """compactness_check over count boundary triples of about the given digits."""
    p, q = 10**digits + 1, 10**digits + 2
    return line_events(compactness_check, [(p, q, k) for k in range(1, count + 1)], (p, q, 1))


def test_compactness_lines_are_affine_in_the_boundary_and_ignore_its_digits():
    c0, c1, c5, c20 = (compactness_lines(1, count) for count in (0, 1, 5, 20))
    per_triple = c1 - c0
    assert per_triple > 0
    assert (c5, c20) == (c0 + 5 * per_triple, c0 + 20 * per_triple)
    assert [compactness_lines(digits, 5) for digits in (20, 300)] == [c5, c5]


def test_form_lines_do_not_depend_on_the_handle_count():
    s = SatelliteParams(2, 2, 3)
    small = line_events(build_Z, s, 3)
    assert small > 0
    assert line_events(build_Z, s, 10**300) == small
    family = Family((s,))
    one = line_events(assemble_X, family, [1])
    assert one > 0
    assert line_events(assemble_X, family, [10**300]) == one
