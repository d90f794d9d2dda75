"""Value domains shared by the differential suites."""

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

#: Per-column value kinds.  A relation draws one kind per column, so a
#: database mixes ``int64`` and ``object`` dictionaries across relations
#: and its shared domain must unify them: plain ints, strings (sorted),
#: ints mixed with strings (first-occurrence order), floats equal to
#: ints (``1.0 == 1``), ints ≥ 2^63 beside small ones, and every
#: :data:`fallback_value`.
column_kinds = st.sampled_from(
    [
        st.integers(0, 4),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(0, 4), st.sampled_from(["a", "b"])),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.one_of(st.integers(0, 2), st.integers(2**63, 2**63 + 1)),
        fallback_value,
    ]
)

#: Fixed value kinds for hand-built instances: how an integer label
#: becomes a column value — plain ints, strings, ints mixed with strings
#: (first-occurrence dictionaries), and ints ≥ 2^63.
VALUE_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: i if i % 2 else f"v{i}",
    "big": lambda i: 2**63 + i,
}
