import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segpart.grid import GridDomain, Mask, ScalarField, build_domain
from segpart.io import (
    atomic_write_text,
    field_to_bytes,
    mask_to_pgm,
    read_field,
    read_mask_array,
    write_field,
    write_mask,
)


def test_spf1_header_and_payload(tmp_path):
    dom = build_domain("square", 8, 1.0)
    rng = np.random.default_rng(4)
    f = ScalarField.from_values(dom, rng.standard_normal(dom.mask.shape))
    raw = field_to_bytes(f)
    header, payload = raw.split(b"\n", 1)
    parts = header.decode().split()
    assert parts[0] == "SPF1"
    assert int(parts[1]) == dom.nx and int(parts[2]) == dom.ny
    assert float(parts[3]) == dom.h
    assert len(payload) == 8 * dom.nx * dom.ny
    decoded = np.frombuffer(payload, dtype="<f8").reshape(dom.nx, dom.ny)
    assert np.array_equal(decoded, f.values)


def test_spf1_round_trip_bit_exact(tmp_path):
    dom = build_domain("disk", 16, 1.0)
    rng = np.random.default_rng(5)
    f = ScalarField.from_values(dom, rng.standard_normal(dom.mask.shape))
    path = os.path.join(tmp_path, "field.spf1")
    write_field(path, f)
    back = read_field(path, domain=dom)
    assert np.array_equal(back.values, f.values)
    assert back.domain.h == dom.h


def test_spf1_read_without_domain(tmp_path):
    dom = build_domain("square", 8, 1.0)
    f = ScalarField.from_values(dom, np.where(dom.mask, 2.5, 0.0))
    path = os.path.join(tmp_path, "f.spf1")
    write_field(path, f)
    back = read_field(path)
    assert back.domain.nx == dom.nx
    assert np.array_equal(back.values, f.values)


def test_spf1_shape_mismatch(tmp_path):
    dom = build_domain("square", 8, 1.0)
    f = ScalarField.zeros(dom)
    path = os.path.join(tmp_path, "f.spf1")
    write_field(path, f)
    with pytest.raises(ValueError):
        read_field(path, domain=build_domain("square", 16, 1.0))


def test_spf1_spacing_mismatch(tmp_path):
    # the same 3 x 3 lattice at another spacing would scale every norm
    path = os.path.join(tmp_path, "f.spf1")
    write_field(path, ScalarField.zeros(GridDomain.raw(3, 3, 0.1)))
    with pytest.raises(ValueError, match="spacing 0.5 does not match file spacing 0.1"):
        read_field(path, domain=GridDomain.raw(3, 3, 0.5))


def test_spf1_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad.spf1")
    atomic_write_text(path, "NOTSPF 3 3 0.1\n")
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_spf1_non_finite_spacing_rejected(tmp_path, h):
    path = tmp_path / "f.spf1"
    path.write_bytes(f"SPF1 2 2 {h}\n".encode("ascii") + np.ones(4, "<f8").tobytes())
    # with or without a domain, the message names the spacing and the file
    message = f"spacing must be finite and positive, got {h} in .*f.spf1"
    for domain in (None, GridDomain.raw(2, 2, 1.0)):
        with pytest.raises(ValueError, match=message):
            read_field(str(path), domain)


def test_pgm_round_trip(tmp_path):
    dom = build_domain("l_shape", 12, 1.0)
    m = Mask(dom, dom.mask.copy())
    path = os.path.join(tmp_path, "mask.pgm")
    write_mask(path, m)
    back = read_mask_array(path)
    assert back.shape == (dom.ny, dom.nx) or back.shape == (dom.nx, dom.ny)
    # stored height=nx, width=ny: rows of the file are first-index slices
    assert np.array_equal(back.reshape(dom.nx, dom.ny), dom.mask)


def test_pgm_values_are_0_and_255(tmp_path):
    dom = build_domain("square", 6, 1.0)
    text = mask_to_pgm(dom.mask)
    tokens = text.split()
    assert tokens[0] == "P2"
    body = set(tokens[4:])
    assert body <= {"0", "255"}


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    h=st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False),
    data=st.data(),
)
def test_spf1_round_trip_property(tmp_path_factory, nx, ny, h, data):
    # every finite float64, signed zeros and subnormals included, survives
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=nx * ny,
            max_size=nx * ny,
        )
    )
    dom = GridDomain.raw(nx, ny, h)
    f = ScalarField(dom, np.array(values, dtype=float).reshape(nx, ny))
    path = os.path.join(tmp_path_factory.mktemp("spf1"), "f.spf1")
    write_field(path, f)
    back = read_field(path, domain=dom)
    assert back.domain.h == h
    assert back.values.tobytes() == f.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 16),
    ny=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
)
def test_pgm_round_trip_property(tmp_path_factory, nx, ny, seed, density):
    nodes = np.random.default_rng(seed).random((nx, ny)) < density
    path = os.path.join(tmp_path_factory.mktemp("pgm"), "mask.pgm")
    atomic_write_text(path, mask_to_pgm(nodes))
    back = read_mask_array(path)
    # stored height=nx, width=ny: rows of the file are first-index slices
    assert back.shape == (nx, ny)
    assert np.array_equal(back, nodes)


@pytest.mark.parametrize("text", ["P2\n3\n", "P2\n", "P2 3 2\n"])
def test_pgm_truncated_header_rejected(tmp_path, text):
    path = os.path.join(tmp_path, "short.pgm")
    atomic_write_text(path, text)
    with pytest.raises(ValueError):
        read_mask_array(path)


@pytest.mark.parametrize(
    "text",
    [
        "P2\n2 1\n255\n255 0 255 255 7\n",  # tokens beyond width x height
        "P2\n2 1\n255\n-4 999\n",  # pixel values outside [0, maxval]
    ],
)
def test_pgm_bad_payload_rejected(tmp_path, text):
    path = os.path.join(tmp_path, "bad.pgm")
    atomic_write_text(path, text)
    with pytest.raises(ValueError):
        read_mask_array(path)


def test_atomic_write_no_partial_files(tmp_path):
    path = os.path.join(tmp_path, "x.txt")
    atomic_write_text(path, "payload")
    assert open(path).read() == "payload"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert not leftovers
