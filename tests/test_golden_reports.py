"""Golden report bytes: every check's CLI output, passing and failing.

Each case runs one `verify` invocation in process and compares the sha256 of
its stdout, with its exit code, to a recorded digest. The failing reports
come from monkeypatching a name that verify looks up when it runs, so every
check's witness is pinned as well as its passing report.
"""

import hashlib
import io

import pytest

from spinbrauer import verify
from spinbrauer.cli import run_command
from spinbrauer.scalars import RootTwoNumber

# verify invocation -> (exit code, sha256 of stdout)
_PLAIN = {
    "homomorphism --n 2 --N 3":
        (0, "f42960bd39b2c1189fd9d4ce70e3f74aee3c131637061ebd580f7cd9f865755c"),
    "homomorphism --n 2 --N 6":
        (0, "c9a2cd031c48d3f16bfecc3986d928d6bc643846b9e2292c27afa11e9d7ec7ea"),
    "homomorphism --n 3 --N 5 --mode random --samples 4 --seed 1":
        (0, "18cdcc64e0cac247403405f2a903988d58e5677eff9316b5ea3697178c7e5a9e"),
    "homomorphism --n 4 --N 8 --mode random --samples 10 --seed 1 --bound 65536":
        (0, "cfc38b0164006415ff3beba3e9e96aebf1d6c498323d45862fe1a105f4f3b707"),
    "equivariance --N 3 --map-kind projection":
        (0, "3c20be74ce6cf7d3390dc135c20868b619ecf61dd4a4726fce503ecc9586ce66"),
    "equivariance --N 3 --map-kind injection":
        (0, "7f135aae16fa1fdf5867e8bb6591545e32a3c914ae968c94d7d94bc117f04775"),
    "equivariance --N 3 --map-kind immersion":
        (0, "5ccb5971c08bef06ebd899638ed60729dd1513848cdba8089738f1cbe1c346cb"),
    "equivariance --N 3 --map-kind contraction":
        (0, "3078162339d2d528318e1592c51ed84e4b34617c2dc36fb1d9da1eb2cb3f2895"),
    "equivariance --N 3 --map-kind swap":
        (0, "2e779cc8b6cf1fe359ada461274736fe7026c9b1b817e5a56715a9bd6814ce9d"),
    "equivariance --N 3 --map-kind invariant":
        (0, "5798c80c3ef98a808f3c36a5ea4d0bcdafafb250c81c859e56ae17a8b6fa39b9"),
    "circuit --N 3 --type I --arcs 2":
        (0, "0b63634d5ddda6d1a7eae3039fbd35f345fe4066500b9c25e0bff5f223ddff24"),
    "circuit --N 3 --type II --arcs 2":
        (0, "252a38699535ac8fd08b8d95acb1e6422c84c2e60c91dda69a1f97c4b40cb67e"),
    "circuit --N 3 --type III --arcs 2":
        (0, "ed281e0ef22245639a2d52d8b1de4c2ee3f49c84a82abc14053226865091670b"),
    "circuit --N 3 --type IV --arcs 2":
        (0, "a0753474540aa0a17da3bcebed0f6549cedfcf2cd6a88fd094de0778f7e4863e"),
    "circuit --N 3 --type V --arcs 2":
        (0, "0914ca16335020c08fd0033c0d7d6a6edec98f8c31f252cf863a5f6585da8bf8"),
    "circuit --N 3 --type I --arcs 0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "clifford --N 4":
        (0, "c113d95d7752623b4c1601f53847dec259508b0d351ff8c743789653cab15cf0"),
    "homomorphism --n 3 --N 5 --mode exhaustive":
        (0, "e7e509ce4c61ffe58640c07ecfd2e8c2bedd3d130f70406af3e64b2bca8cf38b"),
    "rank --n 2 --N 4":
        (0, "a42f3be2f5a685c3b8f7be0eef02dd6e1f878172376cabcc12bded66b2e0bf00"),
    "rank --n 3 --N 2":
        (0, "21a57e01984aa44475367d0c9f858e7829b73eddcecf712969b6725d8a56cc32"),
    "rank --n 3 --N 5":
        (0, "933ff352dba0ac1a53e6579d2da5f5b41e79a9339a13f25aca4146da1795b34b"),
    # Below N = 2n at N >= 3: the rank from the kept weight's orbit columns.
    "rank --n 4 --N 3":
        (0, "edae7a13c7d85c4313366f82392da4ebf4d42c2c8ec3c0195fd3b852b203b9e4"),
    "rank --n 4 --N 8 --bound 65536":
        (0, "88b63887df1e0ad51dfaa29c20bccdcac03843145d24c4b340824f508f1612d3"),
    "rank --n 3 --N 8":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "surjectivity --n 2 --N 3":
        (0, "72686914648dd027f4b28a7447ee4a746340a6568f3ea85bec494a4820facb3d"),
    "surjectivity --n 3 --N 4":
        (0, "376457f9e3db6a89bec9c5fd6761ffe263e04b876ab9e10d8b203720ea10f54f"),
    "surjectivity --n 4 --N 4":
        (0, "a33786c115fab58a93a7bd91459a489b11bcb9ad235414bb39ed2889538e42f5"),
    "surjectivity --n 4 --N 5":
        (0, "7e4473593f43c1a126493b16562289fe38daeca10259b62350fd8312bd1e5eea"),
    "surjectivity --n 4 --N 6 --bound 10368":
        (0, "19976302d2f067fd684a89dccb47189bd5b02f8f8f5282d8c59f900b63c1ecdd"),
    "brauer --n 3":
        (0, "53bc545d1b94453f1a1de1a59fa5adbb64e0af1d0c3ef80ff800fe2c819dc859"),
    "brauer --n 4":
        (0, "f48375bfe81c07a24c22942b300f26456c33a19595e1322893263e9ccb31e9c8"),
    "filtration --n 3":
        (0, "3847907690b13864cd64f8812e3dfb9da614d31489bedadd660ef0e54af4ef8d"),
    "modmult --n 3":
        (0, "81a4c8a854fd4a9e21015aae2e71138805850783d6edaad09de8c07e5caa9140"),
    "involution --n 3":
        (0, "eff898293a3e8343c5dd857638fdb4aa106075d677e97216281ce2d145290dec"),
    "associativity --n 2 --samples 20":
        (0, "40ede21d055a7c25bd4e5938a2945971ff69d6b99281ad69ad07a8bd0a5bb589"),
    "cell-symmetry --n 2":
        (0, "93c4d730cf3e78861059d4d78dce81d0d4ced90cd3ce75bb010978b760cc5898"),
    "cell-symmetry --n 3":
        (1, "d8434df7851d6790307dbe28ee6af9f212256c1a7d395eec078628a6e9d2895d"),
}

_real = {name: getattr(verify, name) for name in (
    "multiply_diagrams", "multiply_elements", "commutant_dimension", "act_so")}

# Each fault replaces one name in verify's namespace.
_FAULTS = {
    "plus-top": ("multiply_diagrams", lambda top, bottom: (
        _real["multiply_diagrams"](top, bottom)
        + verify.AlgebraElement.from_diagram(top))),
    "ab-plus-a": ("multiply_elements", lambda a, b: _real["multiply_elements"](a, b) + a),
    "no-involution": ("involution", lambda d: d),
    "commutant-plus-one": ("commutant_dimension",
                           lambda space: _real["commutant_dimension"](space) + 1),
    "commutant-minus-one": ("commutant_dimension",
                            lambda space: _real["commutant_dimension"](space) - 1),
    "rank-minus-one": ("_realized_rank", lambda basis, space: len(basis) - 1),
    "modmult-false": ("modmult_check", lambda top, bottom, references: False),
    "root-two-plus-one": ("RootTwoNumber", lambda a, b=0: RootTwoNumber(a + 1, b)),
    "so-doubled-off-n1": ("act_so", lambda pair, space: (
        _real["act_so"](pair, space) if space.n != 1
        else _real["act_so"](pair, space).scale(RootTwoNumber(2)))),
}

# (fault, verify invocation) -> (exit code, sha256 of stdout)
_FAULTED = {
    ("plus-top", "homomorphism --n 2 --N 3"):
        (1, "ca96fa3ba70858cc8f9fcd14f0f1828ad046b2e7fad93a2f0aabb083a55afcbf"),
    ("plus-top", "homomorphism --n 2 --N 4"):
        (1, "3b6d0977be1e48f61a2177644a3feae79e664430cf6d74d4b33c8067b4e9df1d"),
    ("plus-top", "homomorphism --n 2 --N 6"):
        (1, "05cfd92d28576de5da85fd9979f50c18963a3063a75fb0891e4b832a5464baad"),
    ("plus-top", "homomorphism --n 3 --N 6"):
        (1, "163088170363ad4a234d204d0151625a19f10b0b05a8c5c81fdddfcf5e920f20"),
    # The witness comes from the rerun on all orbit columns.
    ("plus-top", "homomorphism --n 3 --N 5"):
        (1, "e05f20e476c3ab932386dffdae16b9dc49020a2ee4cad0c454abf68c2054f840"),
    # N = 2 compares on the orbit columns from the start.
    ("plus-top", "homomorphism --n 3 --N 2"):
        (1, "65210a81b8fe66be5127862e4b874339e30700542f549ef774fc7dd73d6a81ae"),
    ("plus-top", "brauer --n 2"):
        (1, "afc92351b2bb33132d598073ff11ac4310224e8e2b6c81865678d81d96f19928"),
    ("plus-top", "filtration --n 2"):
        (1, "f97fd49b3804199b50c4d0b0f397d47bfbe3d54c094baa9af3d3a2af6f979372"),
    ("plus-top", "modmult --n 2"):
        (0, "79013685d37c100c91a32dbd54305ec21dcc87dff348d2d19bed88e28fc48d05"),
    ("ab-plus-a", "associativity --n 2 --samples 5"):
        (1, "22a3dc4415e1d5abbb0b81c4544e155e19a5b1dcdee27436933ad2ca29c4ef8f"),
    ("no-involution", "involution --n 2"):
        (1, "fc9fee6fcc5a6869bbae2f65bf6a3bf9243ad0db2cdfd986386bcb374e0bc689"),
    ("commutant-plus-one", "surjectivity --n 2 --N 3"):
        (1, "4f5d821c3ec10d12e2565706b56093a6f795c54ec4e5acf35d87dced1cfba2c3"),
    ("commutant-plus-one", "rank --n 2 --N 3"):
        (0, "ff6a147267434f7baa9a5d7f8afaa85e7ba2c2b514b8eede61d67a86260c82c8"),
    # A ceiling set too low is still seen: the rank 70 against 69.
    ("commutant-minus-one", "surjectivity --n 3 --N 4"):
        (1, "c6f5aceccf817483f0f25c02839c46ec4c63383de12713acb1802728373c2bff"),
    ("rank-minus-one", "rank --n 2 --N 4"):
        (1, "628a48eee334047b4719b9555d500b9839ed46f3cbbe085cfbdff320d4109658"),
    ("modmult-false", "modmult --n 2"):
        (1, "dbd1ef613f4487664546aca9fe5fa9149099fae2b7c851bc42143ae530493d03"),
    ("root-two-plus-one", "circuit --N 3 --type II --arcs 1"):
        (1, "f25079a7561e2251f1f3ff13cb6afe5f2114095823de58d58a3a6e6f6add238f"),
    ("root-two-plus-one", "clifford --N 3"):
        (1, "7e3735f24a7088f8e7c63ec8249e1f3cb9f3f8afce5e154ef8b3e0abd7264c74"),
    ("so-doubled-off-n1", "equivariance --N 3 --map-kind projection"):
        (1, "16be8d1875ecceaf659cc655f80f318a3d4ebc6c1efd1a365683a5958da9db06"),
}


def _digest(command):
    stream = io.StringIO()
    code = run_command(["verify", *command.split()], stream)
    return code, hashlib.sha256(stream.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", _PLAIN)
def test_report_bytes(command):
    assert _digest(command) == _PLAIN[command]


@pytest.mark.parametrize("fault,command", _FAULTED)
def test_failing_report_bytes(fault, command, monkeypatch):
    name, replacement = _FAULTS[fault]
    monkeypatch.setattr(verify, name, replacement)
    assert _digest(command) == _FAULTED[fault, command]
