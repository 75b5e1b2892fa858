"""Byte-level goldens: sha256 digests of CLI output for a few permutations.

The digests pin the exact text, JSON, SVG and DOT that ``redux`` prints, so a
refactor of the enumerators or renderers that changes a single byte fails
here.  To re-record after an intended output change, print
``hashlib.sha256(out.encode()).hexdigest()`` for each case below.
"""

import hashlib
from itertools import permutations

import pytest

from redux.cli import main

COMMANDS = {
    "enum tilings": ["enum", "tilings"],
    "enum zonotopal": ["enum", "zonotopal"],
    "json enum zonotopal": ["--format", "json", "enum", "zonotopal"],
    "json enum poset": ["--format", "json", "enum", "poset"],
    "render tiling:1": ["render", "tiling:1"],
    "render poset": ["render", "poset"],
    "enum classes": ["enum", "classes"],
    "json enum classes": ["--format", "json", "enum", "classes"],
    "render graph": ["render", "graph"],
    "json render graph": ["--format", "json", "render", "graph"],
    "render polygon": ["render", "polygon"],
    "json render tiling:1": ["--format", "json", "render", "tiling:1"],
    "json enum tilings": ["--format", "json", "enum", "tilings"],
    "json render poset": ["--format", "json", "render", "poset"],
}

DIGESTS = {
    "321": {
        "enum tilings": "9130e565377f90c3f6c5f31adb7048535b2df5a2ba408ccc145da40c943928e3",
        "enum zonotopal": "1c87d9a5281ae0d37d3fba33e738687906113faf63bc64026d099ebd07af22e7",
        "json enum zonotopal": "de924860a9ba365c66286732ce9e3f3d1488dd1dcc5f351581cca59adb99b9d8",
        "json enum poset": "b9a66169ad6303027660e7e84fc5bc49e3cd4b4cce0869e6826bfb2a09504353",
        "render tiling:1": "d9c4b1a3d03e2991d94108477e6af01880bb87b69974afbc5cfc96e23a33c4dc",
        "render poset": "519ccdd7616b661e32f92157c497287a72d2bca5a57894a9d9aa7de09eb63de6",
        "enum classes": "e807bda219827456d4c10dd750f187c85eeb78149798aa3da54c6d5c869d7e63",
        "json enum classes": "90aafa2ba4ff6193beb47b55dbeae9952f82b8691e0fddfb359181ba6e28f3b8",
        "render graph": "225a8a3b7bcc12b440f893049b4e8e6a826cb3aa6919d77a997e8d1b8185293f",
        "json render graph": "b21240e89721cd0425371cf16070ab679a256a05d81cfdbf0eeefb12e2b89b30",
        "render polygon": "3f5376009137997c93998bdf031083f10fbd20292f84f87904e5fb51bc06a107",
        "json render tiling:1": "85e44d1c96cf9698d88cc788ae2e2fe88059b40103b40b179beba366eb15a84c",
        "json enum tilings": "4cde3c4ae479fcccc60bc45c33c07d31ee07c71d98ee3e42fb56f68028127a88",
        "json render poset": "b9a66169ad6303027660e7e84fc5bc49e3cd4b4cce0869e6826bfb2a09504353",
    },
    "4231": {
        "enum tilings": "b33eda6d41daab43dd0f683a893e68373de2094fe8411e1d2b9f4eb7b2c0e329",
        "enum zonotopal": "8543f30e3a91e94d49339768743922cb2b958e10b418d6bdf5ff26c1be187a76",
        "json enum zonotopal": "e8ecaa376a8c46f2c7d9e2f0ce2b273de150ac9a7c7cde06c835cd64732e9729",
        "json enum poset": "88b4a52acb85c895c62d8f652d1728a006e8f9826bc16f6d5a197f7e31ca553f",
        "render tiling:1": "35784e46da14d1920d00c1092a859b32611182c7a9c3cc666fdc286dc898087a",
        "render poset": "5672747fa63845667c055f13da75c6d050cd415789133ce4ac82dfbae5815a72",
        "enum classes": "46b97bbced1b891f891a89d9111b5f7e879cccf12fc4405ce6ccf0ccf29ba094",
        "json enum classes": "4ac20cc8e318a5592dc9af1a193e2dffba8f596caddc60a25104c6c9a9fc3db6",
        "render graph": "7f084994faa391332a42b282df747bb6afb2b601700878c005217148fa2a749f",
        "json render graph": "00611bcfe8d67083d3cade17de16703832d6eaba1ed79334fad939c6cce14515",
        "render polygon": "527cb474a93811bbdf4df70688a1909aa8a677fc4a74842c481ebe5b7155b56c",
        "json render tiling:1": "5e7cad6cc695d242554938837a192068ee3f8dad4a8fa914395878d38e33929b",
        "json enum tilings": "a47d52a678654618bf068e5aeeaba5e7fda18e68742e80418db578889019e32e",
        "json render poset": "88b4a52acb85c895c62d8f652d1728a006e8f9826bc16f6d5a197f7e31ca553f",
    },
    "53241": {
        "enum tilings": "fca31f18dc87bc30b4008f762018448c043c1c1fa8333a5757fbae1e7e5cb2fe",
        "enum zonotopal": "dd2886c4557ce65bc3f589d1f88865480585931d764bfe15d3215bfef9408477",
        "json enum zonotopal": "2e7852a0d6393c9dd379b8b4425650a216d9f4b062ae016013b5e4998d27726a",
        "json enum poset": "e8c45917b17926c4be5d2ebb7cce975029ac605d71c6f71b7d4b08e0c758fd56",
        "render tiling:1": "0b824a2f801d728e7107a098b87217af21f66e80a8406dc931e899dd50bed312",
        "render poset": "ef13a95ecdd1850136fb96cccaca9ef173dfc03748373d714fe500b3586734fe",
        "enum classes": "311a5a59af027b0352542424a7690f68208ab45585b2d0aff1fd4699fa80f89e",
        "json enum classes": "668b05c9a5d05da510550ec8e0c6fb6e50d0d3fa84cca171c84f6501a3df7033",
        "render graph": "b0769bc2d962d841e87640fd619d452b8b9bd5c4fc037a9e38aef766bbb08cc6",
        "json render graph": "3af6dcc703834d116cdf564bd5d99b751de58221a7bda7526f58889e7768f181",
        "render polygon": "c22b3fe3be2610fafd368dce1547380c00c9a16f593d894f27411141a0cd8580",
        "json render tiling:1": "bc44cc3ab35fce0c37d15c418dbd2939398cf3ea82677bf7c557ca638706235f",
        "json enum tilings": "dbf1a54f6c0bd90b94f954754915c50325796d9b14f57f101098734e67bfdd75",
        "json render poset": "e8c45917b17926c4be5d2ebb7cce975029ac605d71c6f71b7d4b08e0c758fd56",
    },
    "465231": {
        "enum tilings": "eb596fff5af634249db650e267bec38ad08229f7dd9915e9cbe50afa69a1761a",
        "enum zonotopal": "49ab7f71f327665f99c60a7c61acfc3f25022ddd251a0cb2e0d068be10fe74f8",
        "json enum zonotopal": "247258abaea7e269938ac9fc3312634d5e9d22b89f709ddecf563b110da1898d",
        "json enum poset": "0b0306851c4a5adc8ac62ebf1399a9a57295ff8bdbcdc166d86337b6f6ab78aa",
        "render tiling:1": "e5e74113703751572191dcf78792e38696789050107f90d1d62b4853e0018df1",
        "render poset": "b92744774d09981d7af4e4da4c2da5bc6aeeace7bd8dba4456c191427da5149d",
        "enum classes": "a1a1f61828cd51fca828c4a6db45747466dd3ed3ac139bcc3d3e0619ec3b0e06",
        "json enum classes": "eb72f14454793b34739d6110523f75c0158c00892cdeabc3ac7099e940ef4ef0",
        "render graph": "06600de14bdad921cca64d545356f6e48b62354dae720bb4a5ca9d526d764bc0",
        "json render graph": "0f33440b6eae38cd812b382f1d25a0baf91511b44bd667175fb870ba71bd4b99",
        "render polygon": "7689f2aa32c22c628497858f3c07cacc25b08eb37bc764d2b5d7c9910402ccfe",
        "json render tiling:1": "9fefa32c2fe4b7490d1447edaa27953f2c736e327ca51dc067daadd5bed7909e",
        "json enum tilings": "680756b006c01dab315eeaeba21c2988936d47776763ad852af95641da3f89fd",
        "json render poset": "0b0306851c4a5adc8ac62ebf1399a9a57295ff8bdbcdc166d86337b6f6ab78aa",
    },
    "243196587": {
        "enum tilings": "49f9ea348713e51307e81969d816a9aacee8c77a080457455e4572403af316ed",
        "enum zonotopal": "b6a7621ac83d0a6fc579e9524d2a7270035c420df91629c5c862b040dec4efe9",
        "json enum zonotopal": "4ec31f261eb45efb328e010604c95bed0feca69e4b47ec31a95bd92b270dbae0",
        "json enum poset": "6812b3fe5dc749521bc93ae7491a26749cb0fc8bbb547774b0c5fe8490538d10",
        "render tiling:1": "f5ef7eb73d9cd28aeb746295bf2ae7ec6d57d51c2e5e27a7267c8f80e0efb56c",
        "render poset": "c9d33f34e495561fa5a8a49190ca000f0cf04f878990b1dfc1486321e3c8f7ad",
        "enum classes": "cf06b683ebc2db68d9f84609d27e1d7a673f8e19a256718279b53711a8bbdaa0",
        "json enum classes": "1a9ed1c697a255c29434a6378fb048cf97b608eba1e22cd7ce4717166c6389d8",
        "render graph": "79d8f784a0b2b12f1a9a3b09af5cc4237e37488f088e6d033ebb43f5e212041a",
        "json render graph": "e299a4bf1c0689c50ab14bd05acb1e99a7d9120fe6fb9f6135fd485b9b0f9a72",
        "render polygon": "5b837bf2a02a70ef7f35d794329118f875cafdcd0f867ffa9ddff3e847d0990e",
        "json render tiling:1": "c801e95426957718dbc0a8db9f63f126f3521f2fd458b367bea9752cccc7f0e9",
        "json enum tilings": "201b9e3cc115369cc4d41ce4a803a7743ae36edd05a8cc602307f2900abb9af0",
        "json render poset": "6812b3fe5dc749521bc93ae7491a26749cb0fc8bbb547774b0c5fe8490538d10",
    },
}


@pytest.mark.parametrize("w", sorted(DIGESTS))
def test_cli_output_digests(capsys, w):
    for name, argv in COMMANDS.items():
        assert main(argv + [w]) == 0, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[w][name], name


# The first member of each orbit the query benchmark samples from: S6,
# lengths 12-14.  The goldens above cover only small w; these carry the
# classes, tilings, P(w) and G(w) of the benchmark's own inputs.
QUERY_PERMS = (
    "456321", "465231", "365421", "635241", "564231",
    "563421", "465321", "635421", "564321", "645321",
)
QUERY_COMMANDS = (
    ["enum", "classes"],
    ["enum", "tilings"],
    ["enum", "zonotopal"],
    ["enum", "poset"],
    ["render", "graph"],
)
# sha256 over the text output of every command above on every w above, in
# that order, each preceded by its argv.
QUERY_DIGEST = (
    "5c02f892a2861057b0e2ef0e66ac9591e1cc573811578fe540898a05fa7d91ed"
)


def test_query_outputs_pinned_S6(capsys):
    h = hashlib.sha256()
    for w in QUERY_PERMS:
        for argv in QUERY_COMMANDS:
            assert main(argv + [w]) == 0, (argv, w)
            h.update(repr(argv + [w]).encode())
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == QUERY_DIGEST


# sha256 over the text and then the JSON output of ``info`` for every w of
# S5, in lexicographic order, each preceded by its argv.
INFO_DIGEST = "ff548a857899343e5e6251b35c56fca1ad8824215a5aec4124e33c0ef9ff50d0"


def test_info_outputs_pinned_S5(capsys):
    h = hashlib.sha256()
    for w in permutations("12345"):
        for argv in (["info"], ["--format", "json", "info"]):
            assert main(argv + ["".join(w)]) == 0, (argv, w)
            h.update(repr(argv + ["".join(w)]).encode())
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == INFO_DIGEST
