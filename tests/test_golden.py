"""Byte-level goldens: sha256 digests of CLI output for a few permutations.

The digests pin the exact text, JSON, SVG and DOT that ``redux`` prints, so a
refactor of the enumerators or renderers that changes a single byte fails
here.  To re-record after an intended output change, print
``hashlib.sha256(out.encode()).hexdigest()`` for each case below.
"""

import hashlib

import pytest

from redux.cli import main

COMMANDS = {
    "enum tilings": ["enum", "tilings"],
    "enum zonotopal": ["enum", "zonotopal"],
    "json enum zonotopal": ["--format", "json", "enum", "zonotopal"],
    "json enum poset": ["--format", "json", "enum", "poset"],
    "render tiling:1": ["render", "tiling:1"],
    "render poset": ["render", "poset"],
}

DIGESTS = {
    "321": {
        "enum tilings": "9130e565377f90c3f6c5f31adb7048535b2df5a2ba408ccc145da40c943928e3",
        "enum zonotopal": "1c87d9a5281ae0d37d3fba33e738687906113faf63bc64026d099ebd07af22e7",
        "json enum zonotopal": "de924860a9ba365c66286732ce9e3f3d1488dd1dcc5f351581cca59adb99b9d8",
        "json enum poset": "b9a66169ad6303027660e7e84fc5bc49e3cd4b4cce0869e6826bfb2a09504353",
        "render tiling:1": "d9c4b1a3d03e2991d94108477e6af01880bb87b69974afbc5cfc96e23a33c4dc",
        "render poset": "519ccdd7616b661e32f92157c497287a72d2bca5a57894a9d9aa7de09eb63de6",
    },
    "4231": {
        "enum tilings": "b33eda6d41daab43dd0f683a893e68373de2094fe8411e1d2b9f4eb7b2c0e329",
        "enum zonotopal": "8543f30e3a91e94d49339768743922cb2b958e10b418d6bdf5ff26c1be187a76",
        "json enum zonotopal": "e8ecaa376a8c46f2c7d9e2f0ce2b273de150ac9a7c7cde06c835cd64732e9729",
        "json enum poset": "88b4a52acb85c895c62d8f652d1728a006e8f9826bc16f6d5a197f7e31ca553f",
        "render tiling:1": "35784e46da14d1920d00c1092a859b32611182c7a9c3cc666fdc286dc898087a",
        "render poset": "5672747fa63845667c055f13da75c6d050cd415789133ce4ac82dfbae5815a72",
    },
    "53241": {
        "enum tilings": "fca31f18dc87bc30b4008f762018448c043c1c1fa8333a5757fbae1e7e5cb2fe",
        "enum zonotopal": "dd2886c4557ce65bc3f589d1f88865480585931d764bfe15d3215bfef9408477",
        "json enum zonotopal": "2e7852a0d6393c9dd379b8b4425650a216d9f4b062ae016013b5e4998d27726a",
        "json enum poset": "e8c45917b17926c4be5d2ebb7cce975029ac605d71c6f71b7d4b08e0c758fd56",
        "render tiling:1": "0b824a2f801d728e7107a098b87217af21f66e80a8406dc931e899dd50bed312",
        "render poset": "ef13a95ecdd1850136fb96cccaca9ef173dfc03748373d714fe500b3586734fe",
    },
    "465231": {
        "enum tilings": "eb596fff5af634249db650e267bec38ad08229f7dd9915e9cbe50afa69a1761a",
        "enum zonotopal": "49ab7f71f327665f99c60a7c61acfc3f25022ddd251a0cb2e0d068be10fe74f8",
        "json enum zonotopal": "247258abaea7e269938ac9fc3312634d5e9d22b89f709ddecf563b110da1898d",
        "json enum poset": "0b0306851c4a5adc8ac62ebf1399a9a57295ff8bdbcdc166d86337b6f6ab78aa",
        "render tiling:1": "e5e74113703751572191dcf78792e38696789050107f90d1d62b4853e0018df1",
        "render poset": "b92744774d09981d7af4e4da4c2da5bc6aeeace7bd8dba4456c191427da5149d",
    },
    "243196587": {
        "enum tilings": "49f9ea348713e51307e81969d816a9aacee8c77a080457455e4572403af316ed",
        "enum zonotopal": "b6a7621ac83d0a6fc579e9524d2a7270035c420df91629c5c862b040dec4efe9",
        "json enum zonotopal": "4ec31f261eb45efb328e010604c95bed0feca69e4b47ec31a95bd92b270dbae0",
        "json enum poset": "6812b3fe5dc749521bc93ae7491a26749cb0fc8bbb547774b0c5fe8490538d10",
        "render tiling:1": "f5ef7eb73d9cd28aeb746295bf2ae7ec6d57d51c2e5e27a7267c8f80e0efb56c",
        "render poset": "c9d33f34e495561fa5a8a49190ca000f0cf04f878990b1dfc1486321e3c8f7ad",
    },
}


@pytest.mark.parametrize("w", sorted(DIGESTS))
def test_cli_output_digests(capsys, w):
    for name, argv in COMMANDS.items():
        assert main(argv + [w]) == 0, name
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[w][name], name
