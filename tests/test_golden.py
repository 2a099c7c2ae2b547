"""Byte-identical CLI output: sha256 digests of stdout for the element
operations on three fixed diagrams (one of them a reducible word), the
embedding phi and the verification reports.  Each key is the argv,
space-joined; a refactor of the algebra must leave every digest unchanged."""

import contextlib
import hashlib
import io

import pytest

from parsym.cli import main

GOLDEN = {
    "op coproduct 1,2,3/4/1',2'/3',4'": "096676b1b5a42c8ce8142162cf17a6d92e58bf7de587499336268180f7ccf113",
    "op coproduct 1,2,3/4/1',2'/3',4' --json": "40e5bef066e68e6dca6aa6a0a6959de67d4e2bce1a7fe9243619b68359e1a1e4",
    "op coproduct 1/2/3/1',2',3'": "f3c93b6d40b5a27b94f9941af8bf24c86e8be47fa8d9a87bfa9c039c8efbe411",
    "op coproduct 1/2/3/1',2',3' --json": "e6d04472c942ed4a608c82359b551df168a11349023cae87e505a6f52065a993",
    "op coproduct 1,1'/2,3,2'/3'": "705fbd39e83cae6a125b23382cdbc711329b4aa8c1cb7495822865f51ca82ae3",
    "op coproduct 1,1'/2,3,2'/3' --json": "4d482a91c54b0744932c22206a4bc8cd13b5a0a06bd953aacf576cb99eb55665",
    "op antipode 1,2,3/4/1',2'/3',4'": "bb1b6a9c88713dd23f7c1aa7a75d04d0af500f536c4d6c2a4b6e38c04c0a255d",
    "op antipode 1,2,3/4/1',2'/3',4' --json": "4f1609b5d350bb9a7da3487c4a9c11afc3d1faf008cf330686113427a2273f7e",
    "op antipode 1/2/3/1',2',3'": "310af067e191dffb8898822f8da45e97b4a2f9d53164f8cd70bfc0db0e202f25",
    "op antipode 1/2/3/1',2',3' --json": "426ad216a5abb525d71f809a8befc90735ba2b480e78fa4ec5fe3aa3f01f4329",
    "op antipode 1,1'/2,3,2'/3'": "4b815940e88d3c0bae72e6a961b6a56c9682c0c25874dd803dea553a593fc7bd",
    "op antipode 1,1'/2,3,2'/3' --json": "fdddcf62be103e0b45fa19c6f29ea16b917e7b9922ca707096edb6cfb9ebbad1",
    "op e-expand 1,2,3/4/1',2'/3',4'": "bb1b6a9c88713dd23f7c1aa7a75d04d0af500f536c4d6c2a4b6e38c04c0a255d",
    "op e-expand 1,2,3/4/1',2'/3',4' --json": "4f1609b5d350bb9a7da3487c4a9c11afc3d1faf008cf330686113427a2273f7e",
    "op e-expand 1/2/3/1',2',3'": "28889e860fe0708fd96e7f20eca3d6f732b46589a6e175122bff58a3d6f7dfd8",
    "op e-expand 1/2/3/1',2',3' --json": "c93d022d022c07f95526f570030a3be3cdd9569579995fea656ad4138a806353",
    "op e-expand 1,1'/2,3,2'/3'": "0e8cbce1642f25eb5beb8ad9f2d69a8d854f69fa33a94782ecdb6825982f60cb",
    "op e-expand 1,1'/2,3,2'/3' --json": "e11872be083f719df93942d8253c5c0e7c3fb87fefd3d1816158f2fc55164f8d",
    "op chi 1,2,3/4/1',2'/3',4'": "8d9496a29c52b293fe5c6321c26184dc7a5fb3b09e0ff74317159ed17fa61a25",
    "op chi 1,2,3/4/1',2'/3',4' --json": "608b9561c73a8fb0f6e6e8da80060de6fc9015e2d1b14087bd8eeeb4a899f429",
    "op chi 1/2/3/1',2',3'": "bd755de33670981518ed84818db161d1838e098f771b13fe9b148b1aaf49928b",
    "op chi 1/2/3/1',2',3' --json": "56e706ed0fe7653c794825acef85ecd127996f666f22290126cfcf1c88f4ea5a",
    "op chi 1,1'/2,3,2'/3'": "082177a9840f9f9ff7e87a0b161434e869338e78e88794d2a2cfea148764e241",
    "op chi 1,1'/2,3,2'/3' --json": "01dc2fd663cec4a2cc221a800f3014812c1c34556c574f932494ae0bece02a1f",
    "op qsym-image 1,2,3/4/1',2'/3',4'": "54b3eab179bf5fbee768a68f8ddbf31c91b2ffc35c2411383b209e60ca378eee",
    "op qsym-image 1,2,3/4/1',2'/3',4' --json": "b64646670e1ab54e869c8fac12836623ce0fbf444674d3b7a1a5fd16fe3938db",
    "op qsym-image 1/2/3/1',2',3'": "0c88386cfeaacd438f3b1ac2120768d9641508de0abf3dc69d79a5d1967c3fc6",
    "op qsym-image 1/2/3/1',2',3' --json": "96a5aeb61ae66ff8130c143ff807376897ce35727f3dbb86f9f22feff9b240a2",
    "op qsym-image 1,1'/2,3,2'/3'": "0951599a80654213da3ad9f603109e793eed49a1738f86c3e1167c3029d1e3f7",
    "op qsym-image 1,1'/2,3,2'/3' --json": "6c7e46d454c3b975297f074ba4702905f04e7d6aaef8f814457713d5b094972d",
    "op phi (2,1,3)": "f26ca11e63b0b64c5202f6f3cddf6dd1bb4a68024ab4b8f1e55b7b1f96b755e7",
    "verify hopf --max-degree 3": "c397491be086b26e6aa9a13e6057c1c76e0062cf3729eaaa61c1bcea54a9153e",
    "verify hopf --max-degree 3 --json": "045f0a2687f1194e116f1495e7cd05bba0be6e603a97e5c87293f40620ba3597",
    "verify closure --max-degree 3": "0465a7127001f96cac78fec64e32ce0e7a28f59e750ef1691526914a2f26f418",
    "verify closure --max-degree 3 --json": "504077c70e150ac100b651213362650ac99a445e2983ca7192bf2fb253ef7765",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split(" "))
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[command]
