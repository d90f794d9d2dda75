"""Hypothesis value domains shared by the differential suites."""

from hypothesis import strategies as st

#: Values beyond plain ``int64`` columns, each encoded through an
#: ``object`` dictionary: small ints mixed with int pairs and strings
#: (not mutually orderable: first-occurrence dictionaries), ints ≥ 2^63,
#: and floats — ``1.0`` and ``2.0`` equal the ints ``1`` and ``2`` under
#: Python equality, so codes must unify them exactly as sets do.
fallback_value = st.one_of(
    st.integers(0, 4),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from(["a", "b"]),
    st.integers(2**63, 2**63 + 2),
    st.sampled_from([0.5, 1.0, 2.0]),
)
