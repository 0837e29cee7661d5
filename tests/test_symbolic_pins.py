"""The appendix polynomials, pinned to str() digests from commit 0005193.

The sha256 digests of `str()` were recorded at 0005193, where
`MultiPoly` keyed its terms by exponent tuples over a per-polynomial
variable list and sorted them by (total degree, tuple).  The CLI prints
only the names of the appendix checks, so these pins are what holds the
printed polynomials themselves: every eliminant, branch quartic,
vertical-bitangent condition and restricted quartic (its five
coefficients joined by newlines), and every `builtin` registry entry.
"""
import hashlib

import pytest

from delsarte import symbolic

PINS = {
    "bitangent_eliminant(1)": "b1635d40702db85d761c7be76a9838ccfa3ece9ccfa3315c3b42390d948808bd",
    "branch_quartic(1)": "15b8c1c4e3eeb03b8ea82805cd3d41c4fa668455916bf6be6d9ad31c82e5e4e1",
    "vertical_bitangents(1)": "64e989ee84a066fa769e386e561e2bd35ea5296e1d96ed4212856a65e00ef1a0",
    "bitangent_restriction(1)": "88131f7a2ec714a612d3dd7e99c8b4340e5929ffefdf5e6580f467c164e6fdab",
    "bitangent_eliminant(2)": "488c3dcfef1fe76013f3dd613ddde5d87f437d3523808c560a88b611f8a29530",
    "branch_quartic(2)": "13b3786a56293e7f069a0632488aab0b24f5fb7c5167b4a914f9cb6584bef866",
    "vertical_bitangents(2)": "754cacbaec36f83e3baf69cdd9f4c2204d1dbe939f33b09c37e02463a7f8c2b3",
    "bitangent_restriction(2)": "8a73907fc26d1f1a78b2636077d964f9b2653b1d63353da679f27314fb0aed66",
    "bitangent_eliminant(3)": "134d8eb6e1188344d4065d9e1ba040fb30d672135d9ff35eef013eeb715570de",
    "branch_quartic(3)": "7e157cffb675d0ab7dc42e790273439d66ecdc4d5dbdb5ad2945aceb25d1c654",
    "vertical_bitangents(3)": "05a34045c0a7ed57761693f80d95a2eab5255c3784b5789282dd12229f8db5d2",
    "bitangent_restriction(3)": "a1a7f85a53d75c10fe7b1e8b346bf6f1d9ca0ee9ffa271eb5344093c6f4dda59",
    "bitangent_eliminant(6)": "fe4c0e601675a99d02303d760ce39355028d5d2f54f7d6e290d4d51317326b6f",
    "branch_quartic(6)": "a304882ad813da001d4d7fa67f46bd7901429f018571d2a4100abe1191342702",
    "vertical_bitangents(6)": "7c86f1cf33ffd43254c4ca4a8d760a3458cdef3cc66c3bf24915f273afc9bec9",
    "bitangent_restriction(6)": "3e57c0eddc8a43cda39a079d3d7fbc6936851e9171e88cd6c0ecebe48fac5833",
    "bitangent_eliminant(7)": "2f3e958b51a8a1db853686c468d47d97ce4ebc1dcaa9ce8358509d024eb25150",
    "branch_quartic(7)": "6e3c8f1590c57abf6c433b08832b489a0e9bbf9e554d8b855759421ec93b2f36",
    "vertical_bitangents(7)": "c3cd0b34be645bd28954db5609c8a3127b91b52bb23aa00bc15da9d6ab69cff3",
    "bitangent_restriction(7)": "7cfb2fcc286020b6d4f4eef1d961097ca5e35cfffd92e22f3f8ef10e370248a1",
    "builtin('h1')": "da324b8a7f324f153b30c4156e2c124f3ded4b106370466a516adfc988274f92",
    "builtin('h2')": "1827336748d9177de332d5a5865df864cca6dba950fda6e80bbd3dc91efd9b91",
    "builtin('h3')": "00eacad8a52be835c704d3c3957a031d4724e1a21aa5af503f2d8549a9df5c18",
    "builtin('h4')": "3700afc2932c25170ac01673fbac882e61ea4329fdf541b3a87253b90f938f72",
    "builtin('h5')": "31b1aaa3910fd9d0e8ca1fbd4bf65c9616120094f96a1c9d833a3802d8684634",
    "builtin('q1')": "15b8c1c4e3eeb03b8ea82805cd3d41c4fa668455916bf6be6d9ad31c82e5e4e1",
    "builtin('q2')": "13b3786a56293e7f069a0632488aab0b24f5fb7c5167b4a914f9cb6584bef866",
    "builtin('q3')": "7e157cffb675d0ab7dc42e790273439d66ecdc4d5dbdb5ad2945aceb25d1c654",
    "builtin('q6')": "a304882ad813da001d4d7fa67f46bd7901429f018571d2a4100abe1191342702",
    "builtin('q7')": "6e3c8f1590c57abf6c433b08832b489a0e9bbf9e554d8b855759421ec93b2f36",
}


def _text(name: str) -> str:
    func, arg = name[:-1].split("(")
    if func == "builtin":
        return str(symbolic.builtin(arg.strip("'")))
    value = getattr(symbolic, func)(int(arg))
    return "\n".join(str(r) for r in value) if isinstance(value, list) else str(value)


def test_pins_cover_every_family_and_registry_entry():
    funcs = ("bitangent_eliminant", "branch_quartic", "vertical_bitangents", "bitangent_restriction")
    want = {f"{f}({i})" for f in funcs for i in symbolic.FAMILY_INDICES}
    want |= {f"builtin({name!r})" for name in symbolic._REGISTRY}
    assert set(PINS) == want


@pytest.mark.parametrize("name", sorted(PINS))
def test_polynomial_text_matches_parent(name):
    assert hashlib.sha256(_text(name).encode()).hexdigest() == PINS[name]
