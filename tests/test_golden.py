"""Byte-identical CLI output: sha256 digests of stdout for every op verb
on three fixed diagrams (one of them a reducible word), the antipode and
E-expansion of two long reducible words, the embedding phi, every
verification target (the Hopf axioms at degrees 3 and 4, closure per
family at degree 4, planar at 3, and at the cap of 5 for the default
families and for all), every
sequence name, and the members of every family (listed in enumeration
order, counted and binned by the bullet statistic), in text and JSON.
Each key is the argv, space-joined; a refactor must leave every digest
unchanged.  The FAIL reports, which no real input reaches, are pinned in
``tests/test_cli.py``."""

import contextlib
import hashlib
import io

import pytest

from parsym.cli import main
from parsym.diagrams import parse, render, tensor_fold

# three generators, two of them with bullet cuts, so S regroups a reversed word
THREE_FACTORS = render(tensor_fold(map(parse, ["1,2,1',2'", "1/1'", "1,2,3/4/1',2'/3',4'"])))
# 200 order-1 factors alternating 1,1' and 1/1'
ALTERNATING = render(tensor_fold([parse("1,1'"), parse("1/1'")] * 100))

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
    f"op antipode {THREE_FACTORS}": "9466356a558c737c3fd67a0840b3fc5c5cff534ca9735f0a2ce31ed32c0bbfe2",
    f"op antipode {THREE_FACTORS} --json": "be13607ade698c3994460fe4a41ae51d0e8631f7531fd77c12c6feb35afb5755",
    f"op e-expand {THREE_FACTORS}": "0a5df09f09847fbb50ebf04bc4927d70c5a7760f6143eca16dd74bda70b9f02a",
    f"op e-expand {THREE_FACTORS} --json": "b096189fa339a9eae829418229f65aae4d52a61edeb31fa7186fe45c70d2ac6d",
    f"op antipode {ALTERNATING}": "58a228b6497a36d00474ba8bb1e009faa24c7bb7c8a6009972cd8abb9e0a5af8",
    f"op antipode {ALTERNATING} --json": "a2931670f2921749dc63a733d2a85aec380657c691856f6f49902ab4b4d9eb3d",
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
    # the degree of the benchmark's axiom job
    "verify hopf --max-degree 4": "c397491be086b26e6aa9a13e6057c1c76e0062cf3729eaaa61c1bcea54a9153e",
    "verify hopf --max-degree 4 --json": "b0393b8a22e51da793ed9503d55be25ba0e9a806dc5f004d10385edd6d66157e",
    "verify closure --max-degree 3": "0465a7127001f96cac78fec64e32ce0e7a28f59e750ef1691526914a2f26f418",
    "verify closure --max-degree 3 --json": "504077c70e150ac100b651213362650ac99a445e2983ca7192bf2fb253ef7765",
    # exhaustive sweeps: the order-5 generator count and the family counts
    "count --order 5 --irreducible": "190abdcf8d670dd94ee3417ab646bcd2a565a02728105026bac6025f8ffffef0",
    "verify counts --terms 5": "fabcb58a22a13dc28004e5115cdda913260c9fd7dd2796737603e44c14c232ee",
    # the planar walks at full size: order-6 family counts and the order-5
    # members of two planar families
    "verify counts --terms 6": "39960535c4366cdcfd3af17270ddac4dc41e694fb8e097be2d9fff85211b1408",
    "enumerate --order 5 --family planar": "d0d9592af1b5a94455addecc118065f10b9fc72c974616036675efd6ca9bd3ee",
    "enumerate --order 5 --family planar-matching": "23eb537603c9941224116501f78862990fedf256d947ee2b5be2f0845b86a494",
    # the dimension sequences with a closed form
    "seq dim(all) --terms 100": "4f8fd51f8181cf2d3b4191a8441d6782f9f003106a080d9767a58b1040b48b03",
    "seq dim(permutation) --terms 100": "a5b420df6829818f30ebef885fab554fb1d1927f2a2bcfe85e257a970f59f2f7",
    "seq dim(planar) --terms 100": "299e263a03d11841312c88ade158c9cee577a6f69d976cee87c0a6983db3234d",
    "seq dim(matching) --terms 100": "87d97ade79cda8bfd8835a98eea204460bdff77948422b515dda4d5d813cd602",
    "seq dim(perfect-matching) --terms 100": "1ba770e72862e8a5a36b6ad2c4e13b1f595640b98ac4c83544dd5ed258610585",
    "seq dim(partial-permutation) --terms 100": "1d39215c1652e208ab6e0ed1530a2716b1294fcf1a0a7f4c199dab2027cab72c",
    # closure reports per family at degree 4, planar at 3
    "verify closure --family permutation --max-degree 4": "3f76ae91f26e85b272043e3aac41349cb9a342b93ae2bf019905d465587ccb72",
    "verify closure --family permutation --max-degree 4 --json": "0ae6f9b5cc8f9a0e6f8f6bba3755411c48c452ac36b1321dddaab858f64f33a8",
    "verify closure --family matching --max-degree 4": "db53c684c4b4b022929ace3f0534a8511b2f661c07c54f5e8558c9e5ca467994",
    "verify closure --family matching --max-degree 4 --json": "4182f95fd3362f07249d477a1aa673c2a1a8b251f6b61a558dfa78adfdb4dcd1",
    "verify closure --family perfect-matching --max-degree 4": "acfef2c8c26c14d7105488ecb5d9be07f357bced01bac1be6d3bca086887d0e1",
    "verify closure --family perfect-matching --max-degree 4 --json": "c804f05f5cd47021de6a240ea0ee2ab1cf5667854845f0ee8d6cdd1203d07f78",
    "verify closure --family partial-permutation --max-degree 4": "83051977140b7e4b647b8150dfbd06bf572ad30daf6fb7dc46ca987d3c77c80b",
    "verify closure --family partial-permutation --max-degree 4 --json": "fb69aaaf7a4925ea7f9eb802a7b57fcd73c18d4629bcb00c852a20d45352b1a4",
    "verify closure --family planar-perfect-matching --max-degree 4": "5721bb454508a5b4780538714547f50a8e52d8876051dff99caa26aacbc8da4c",
    "verify closure --family planar-perfect-matching --max-degree 4 --json": "fee506bdd427823f0e7c8e279995d6c8fae7df839db2fa7895ab05eda7c41679",
    "verify closure --family planar-matching --max-degree 4": "930db79e2216437e0adc00d257c202068e578f10b51a59fec00fb551cf07c3e9",
    "verify closure --family planar-matching --max-degree 4 --json": "15babbbaffc78442351e662bf2a4b9492f15738d050dcebcbcd1883119e5531c",
    "verify closure --family planar-partial-permutation --max-degree 4": "03bb691e670d3e49b7dc25e4ca8dfdb6fbf95969d49c15ded634c5cfd1b92818",
    "verify closure --family planar-partial-permutation --max-degree 4 --json": "0ad57a105effe7e4fb200693d82e419d9c1022cf17b55e6bfe92a388247825da",
    "verify closure --family planar --max-degree 3": "f69c73adaac5c8ccc8158da68ededa149b412ac54f83036eac9217f4de312138",
    "verify closure --family planar --max-degree 3 --json": "81ddf2dcf0dc9dbab431738dc3ebd229a1fe4ff14c9b54a5a9a2aa49b2bd75bc",
    # family members, in enumeration order, for every family
    "enumerate --order 3 --family all": "c7fbb64974af9587e954a9df18044ac2a5a4c12d687329c5c875fb5fe2c8c08c",
    "enumerate --order 3 --family all --json": "c0042819043254460a0c3730c4731f53b368802b39e42b7d1490085fa494e49c",
    "count --order 4 --family all --irreducible": "617503461b7a1c700b1d34275611f95a36510189d68ca19b1bcf194f714d980a",
    "hist m --order 3 --family all": "4f5c24969ef8d8105b05c52defc3b87db3fac8247877e68ce59e79ce6618b6ac",
    "enumerate --order 3 --family permutation": "16ebaefe7d03b8e08fed2df64e82db17e729331d0e1479f94197fa68e75862d7",
    "enumerate --order 3 --family permutation --json": "aad75b27dddcf4729512e767080a24db0fd14a7ffb9df34200a4542b52a4f848",
    "count --order 4 --family permutation --irreducible": "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17",
    "hist m --order 3 --family permutation": "82d6bb86d88282385246e3c0b76d68d435d5007fc78810e3392dbc9c6047f0f3",
    "enumerate --order 3 --family planar": "f2a99b931ecbf98561b4c8030887554ad663e30b2948bdd38247221d021c1bc5",
    "enumerate --order 3 --family planar --json": "96f2c9b86c99cfaceb91102616da7a6f68a13b348fc7abaffd0f36c774cec0e3",
    "count --order 4 --family planar --irreducible": "30331378d68b833b097861af6912bea752514f396a7b2c250474a0509d545b33",
    "hist m --order 3 --family planar": "d92eedbb7f4d9fb9e37a1822326e92baeb5cd64850ffbc75c8fb9c64e92367b5",
    "enumerate --order 3 --family matching": "85a7ee70bcd87b50b5c28df8ad8c78ffc0e66c7ce59950dab88c57f075b21c84",
    "enumerate --order 3 --family matching --json": "d8bea8243e8d430d55fff3f8a888585f8340f40d08192423b6d6258695e3b2f6",
    "count --order 4 --family matching --irreducible": "37aeed46a172d08e210fed9c4ad8922aeaa0d7a52faaee0fada64760d1741dd0",
    "hist m --order 3 --family matching": "67b90ee15453c1feeafe90711b640beab1d6d47616e8c9763ba06554709bca16",
    "enumerate --order 3 --family perfect-matching": "972e78cf4dd8bcc6174d007bf14cfdb7a2cfd4f69125fef9117a263c24dd9571",
    "enumerate --order 3 --family perfect-matching --json": "551938da92e63eef5d8002bde4c46721b16989f3d60c7e1420c097602822bec0",
    "count --order 4 --family perfect-matching --irreducible": "93a73825c1b761d11bf2b3f4dff760d07888d3fde05dcf55f1da84aa6041a5a8",
    "hist m --order 3 --family perfect-matching": "06dbca2cf6481e7ea06ad719c4b559a4888ebc2a4c4cf7d81759c1308fd6dd2d",
    "enumerate --order 3 --family partial-permutation": "1aec7f9a5ad9097fe191fb5f6c6b9d69e506172215877055df32064105b547ef",
    "enumerate --order 3 --family partial-permutation --json": "04576e893647de251cdf45bc74e1e24908646bdbda73cb67da8e2770bae34516",
    "count --order 4 --family partial-permutation --irreducible": "13c1dc569ae4a0d7f90d8f83d22fc9c8fa526e133f8fea0f9526c8533c4d8da3",
    "hist m --order 3 --family partial-permutation": "74125193138d989a2d78dd52ac4fc8feaff5ea3c143575e03c84a669d20b113c",
    "enumerate --order 3 --family planar-perfect-matching": "c2e5acd3a19fbab76fdd88947161d8188db092c130ae4d36722c7b3fc8d19a00",
    "enumerate --order 3 --family planar-perfect-matching --json": "5dbc05cd74896750deec27455fc28030a8196069d79d1bf4b65e9322a1207b00",
    "count --order 4 --family planar-perfect-matching --irreducible": "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "hist m --order 3 --family planar-perfect-matching": "b1a354745f29431a73c71edb879d862ed4981a6e7e051c892e1e6069b980fa3b",
    "enumerate --order 3 --family planar-matching": "d934e5d4d94101ca76f18e670528e347d355b03ee098b4ee97ed761750ee8881",
    "enumerate --order 3 --family planar-matching --json": "db479c9b304e83a3b8c9b989e5cdbbfd40438ce1bbaa101c27c0857796ece6c1",
    "count --order 4 --family planar-matching --irreducible": "f5bde7eb9f6c71611dc5726e8aca3eb4eba3e386da49e0a4ed5c295a90a73a0d",
    "hist m --order 3 --family planar-matching": "fc549a1e60e1a52be22b6c6a2f08144ee06e1cc57e99d47b1d67421269990e52",
    "enumerate --order 3 --family planar-partial-permutation": "0b364b9b3d2f2cbec5e95aa43e2ef57aec3ec386b58075b7b7d15f43f2666569",
    "enumerate --order 3 --family planar-partial-permutation --json": "0243b96f4d39892bf6d70f75dbd20e99597fb43a471c5eed1f1e7db9977f293d",
    "count --order 4 --family planar-partial-permutation --irreducible": "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469",
    "hist m --order 3 --family planar-partial-permutation": "76fc53e523c8d7287dfb6df8faf7c883e2c0bfc42da4ba060458d67c6215f3c8",
    # the remaining diagram ops, text and JSON, on the three diagrams and the
    # three-factor word; the binary ops on fixed pairs
    "op parse 1,2,3/4/1',2'/3',4'": "ed0615e87fc7fc23a8115d37cc3c929707c4697bb81a7f554af1901093cdc22f",
    "op parse 1,2,3/4/1',2'/3',4' --json": "1efea78fa367406e0ec008db020cd0d771548f9203f2424b24061385d6ebc37c",
    "op parse 1/2/3/1',2',3'": "3b50c753583ca4aec8679a3bcff4488ea3d54a270fe126c2b5bc79e51a3f2fc9",
    "op parse 1/2/3/1',2',3' --json": "50d1470e0a98e23af42097c293e99b70eb2a25ba8d00c3c36f68b20198c4ea60",
    "op parse 1,1'/2,3,2'/3'": "b7821291d1417a0864bd67c07ab7d4bbe131638f412c77c4911eac03e345bc36",
    "op parse 1,1'/2,3,2'/3' --json": "d9ddeb5078c950a073de17bbcfe37e690b61b5a0a9251c80eaa77c573b7081de",
    f"op parse {THREE_FACTORS}": "ec4c3a3ecac56fc553b6784395928caf514a5dc10dc3b3a12fba1c3ae583a819",
    f"op parse {THREE_FACTORS} --json": "09ca62a7d0915cbcbf0116ee21bfd331d6bf69ac44cc7e199f887ae343b1318c",
    "op factorize 1,2,3/4/1',2'/3',4'": "ed0615e87fc7fc23a8115d37cc3c929707c4697bb81a7f554af1901093cdc22f",
    "op factorize 1,2,3/4/1',2'/3',4' --json": "e486747927dfbe0ded33b0ec76fb38b25867e7229b8cf9331cb68318dc795ca2",
    "op factorize 1/2/3/1',2',3'": "3b50c753583ca4aec8679a3bcff4488ea3d54a270fe126c2b5bc79e51a3f2fc9",
    "op factorize 1/2/3/1',2',3' --json": "c1bb490d35ae124d71490a11961069324f487d24b8873a5d8737e7a676d5c534",
    "op factorize 1,1'/2,3,2'/3'": "05c9a49e2a7273bdbcba36fd3b6604cc52d50a26974453ba3216673a11ae213c",
    "op factorize 1,1'/2,3,2'/3' --json": "11cc1fde5b715ae65fe6b7b1f2e1bfbc789d995da8a7be751a1ea03f10f4c704",
    f"op factorize {THREE_FACTORS}": "30f257eb2088afd5d6fda09a6fc686ccc8b606b306d40bbb8f81b786fe299586",
    f"op factorize {THREE_FACTORS} --json": "f5b1483ee4e05b58eec95eb7e808b67d9a6fb6a64b1335351b7de98c6624ac95",
    "op bullet-decompose 1,2,3/4/1',2'/3',4'": "7db18b53b637f57845312940e111690ce9ea0fef96e59911d1e03be40eb57729",
    "op bullet-decompose 1,2,3/4/1',2'/3',4' --json": "bef0934cbf243506efa7fe94b8f0722ba00c50d6f82ebaba00a3c4e4d3e52ecd",
    "op bullet-decompose 1/2/3/1',2',3'": "46387b762da7cebb9ba3bac6092eb1363055a7bb663f97b52a55d178ee0ca09a",
    "op bullet-decompose 1/2/3/1',2',3' --json": "e22114c1447a4684d8ebafbba2cc959a1bef7f64b43e40804e257bde55e51054",
    "op bullet-decompose 1,1'/2,3,2'/3'": "b7821291d1417a0864bd67c07ab7d4bbe131638f412c77c4911eac03e345bc36",
    "op bullet-decompose 1,1'/2,3,2'/3' --json": "b11443297a101ad2e81ab68ae23d2c83b8fd5c1d3b4a077d95ccfae9587779e7",
    f"op bullet-decompose {THREE_FACTORS}": "08df7e691ed82cca9abcde0a6f6d74208701a41a723a90e9feb1efd1109fd3b7",
    f"op bullet-decompose {THREE_FACTORS} --json": "35c97ca638ad1eb0f2052ee25d10879c08b3c6d14124647d7e7d059688f50fef",
    "op m 1,2,3/4/1',2'/3',4'": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "op m 1,2,3/4/1',2'/3',4' --json": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "op m 1/2/3/1',2',3'": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "op m 1/2/3/1',2',3' --json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "op m 1,1'/2,3,2'/3'": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "op m 1,1'/2,3,2'/3' --json": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    f"op m {THREE_FACTORS}": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    f"op m {THREE_FACTORS} --json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "op propagation 1,2,3/4/1',2'/3',4'": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op propagation 1,2,3/4/1',2'/3',4' --json": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op propagation 1/2/3/1',2',3'": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op propagation 1/2/3/1',2',3' --json": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op propagation 1,1'/2,3,2'/3'": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "op propagation 1,1'/2,3,2'/3' --json": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    f"op propagation {THREE_FACTORS}": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    f"op propagation {THREE_FACTORS} --json": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "op zeta 1,2,3/4/1',2'/3',4'": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op zeta 1,2,3/4/1',2'/3',4' --json": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op zeta 1/2/3/1',2',3'": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op zeta 1/2/3/1',2',3' --json": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op zeta 1,1'/2,3,2'/3'": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "op zeta 1,1'/2,3,2'/3' --json": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    f"op zeta {THREE_FACTORS}": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    f"op zeta {THREE_FACTORS} --json": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "op tensor 1,2,3/4/1',2'/3',4' 1/2/3/1',2',3'": "148ada0ae6ce83fbf256a7a79dd0cce3120ef379ca3ac47754b9fe4df3fc6f91",
    "op tensor 1,2,3/4/1',2'/3',4' 1/2/3/1',2',3' --json": "8400f4ddef4acc985d127eda9d02ff306136e00e999bed65c1821391681505c7",
    "op tensor 1,1'/2,3,2'/3' 1,2,3/4/1',2'/3',4'": "b73de5f080bf621ca4083ec299c4070891c2b5f9468094e595f37c8e13a7c1e3",
    "op tensor 1,1'/2,3,2'/3' 1,2,3/4/1',2'/3',4' --json": "9476a1ef6bc5165c914d6498d9e7ee8cc1c25cbdbc72abe34b6c77ab0f2e6efd",
    "op bullet 1,2,3/4/1',2'/3',4' 1/2/3/1',2',3'": "46cfec7eac41c577a5f71ea02e1b5536f2b9e5d07151152bf9d5d68ac5b14774",
    "op bullet 1,2,3/4/1',2'/3',4' 1/2/3/1',2',3' --json": "8ef2941b7d712f98339ec294611a723eb433e92e75187593603fef829882fc56",
    "op bullet 1,1'/2,3,2'/3' 1,2,3/4/1',2'/3',4'": "d9a461bd96ce9b20f2b21dc4cd6cfff3370dadbbb7f27003db80c015fda1f989",
    "op bullet 1,1'/2,3,2'/3' 1,2,3/4/1',2'/3',4' --json": "22a370ab3fb244d588618ad26d67292591a0b047dd2220ded9babd4a4a7de26f",
    "op vcompose 1/2/3/1',2',3' 1,1'/2,3,2'/3'": "4607fbd3c40b6a4e5bcf851159d4e00cb69b09f78e07f73ae735164d0855527c",
    "op vcompose 1/2/3/1',2',3' 1,1'/2,3,2'/3' --json": "62093d0b9566e8fb0808d815d378a423aaae2551f08a1bb9a8e5e04f93c30c18",
    "op vcompose 1,1'/2,3,2'/3' 1/2/3/1',2',3'": "16ac59b6ab987447c737eb0d18bb4e3adc5b33d77b1352cd28c7e44b9482e18c",
    "op vcompose 1,1'/2,3,2'/3' 1/2/3/1',2',3' --json": "f7ec7dc5531daf4db76e44adec3d6f1db6148548fc25b7bf1babefa5b970404a",
    "op vcompose 1,2,3/4/1',2'/3',4' 1,2,3/4/1',2'/3',4'": "621ce975cd18f17dc06b1b261be22e52ac43df1aaa3a95a19f2289a4bb38c47e",
    "op vcompose 1,2,3/4/1',2'/3',4' 1,2,3/4/1',2'/3',4' --json": "76e498f506467d2cbf0a41713c3049fa56f952ad6e6a6d3200b94402e4f74f2b",
    "op phi (2,1,3) --json": "eb0ba3bb1fdbf2118abbcd0ef231e537804421e686bf263bf583d1dd3048a869",
    # every sequence name as JSON, bare boolean and dim with --family
    "seq a --terms 30 --json": "8472cebdcb49d31b0cf628e6aa37e0eb00c1f7e0533a1cc5fbc8e674d112c1e6",
    "seq bell --terms 30 --json": "0499bb93a152898ff23dcdf3f8506a5ca6787eaec20b195eceb14f39178315a2",
    "seq bell-even --terms 30 --json": "f9b7677c9e06922fc523ebcdef69f1c2500b9a6fc0b1c4d0593b81c6f1f95343",
    "seq boolean --terms 30 --json": "8472cebdcb49d31b0cf628e6aa37e0eb00c1f7e0533a1cc5fbc8e674d112c1e6",
    "seq boolean(bell-even) --terms 30 --json": "8472cebdcb49d31b0cf628e6aa37e0eb00c1f7e0533a1cc5fbc8e674d112c1e6",
    "seq boolean(a) --terms 30 --json": "ce54d11089d9ab7410b0a2443345058728abc5f5c3f9651292bf1a4ea415682e",
    "seq boolean(boolean(dim(planar))) --terms 30 --json": "f05d47ef8f506d74cec207fb30e7779d67d3139b760dd4c7391b7eb95ed3f0e8",
    "seq dim(all) --terms 30 --json": "f9b7677c9e06922fc523ebcdef69f1c2500b9a6fc0b1c4d0593b81c6f1f95343",
    "seq dim(partial-permutation) --terms 30 --json": "a3abc183737ef78d04bfef0ff3089760ca1bc17ba35560d837bdb2721858a9ae",
    "seq boolean --terms 30 --family planar --json": "1ac87561bf8a171b3f2fb84937d99e2b05ca4f29e3da75ac98ee489d91708116",
    "seq boolean --terms 30 --family planar": "8416847b2f1c77cdcc35fcb9c09368ddbc3cb5de012e760204c1836952e31d09",
    "seq dim --terms 30 --family matching --json": "8e560a236709c043193011a7ef029cea0bdc76e140588d2f64d7025e86fe399e",
    "seq dim --terms 30 --family matching": "caada86c2d66f04f389ef9af5962e49b64de0cc905e66bc60ac6df5622e5a146",
    "seq boolean(dim) --terms 30 --family permutation --json": "723a671217959242796e0de4bdc25f34697def7fe9db14309129947222c6c891",
    # verify targets and defaults not covered above
    "verify gf": "8d65647cf3930b24e944e4a3bb2e235d368f9cbf2d18a03b66cfef01dd16d783",
    "verify gf --json": "a615c5c9085b553ef2a63d4d61984c3f695fbc9767a30c3a3aad614c27f954ed",
    "verify gf --terms 40": "a3f6a15e5caa53a4f19c1344129a07d5fe0a976c0f75fb584406d81dee82e787",
    "verify gf --terms 40 --json": "9b8e6fd6a9511720770eab0ff95287346afdb825c39b4e0483e1ea7c096557cf",
    "verify gf --terms 400": "5c75ccde54925ee83589b1a9c984686ca6a13f6e3f7ed6523f000703285e707f",
    "verify gf --terms 400 --json": "a39edc240bac4eaebc605d822acdaa9e5ece3e014e8182632ff40a47bc878c63",
    "verify gf --terms 1": "35195f93b7fdeed7b04cd8c0bd1c9535486de3ca9e83a0dc8537a4ff459866ea",
    "verify gf --terms 1 --json": "7ca173769ea6c459d962d9cea4fcafaee32688c05e439bc6c3750a9411aaf489",
    "verify counts --json": "1fe113b06d96c6212ffaa5cc3a1c7a01a2f9bcd221d37621c6b30a428c4f01e3",
    "verify counts --terms 5 --json": "481ee8c73f6e34aca9b9280df83fac4193ca3a07bbe52eb4d48af4a5d25401df",
    "verify counts --family planar --json": "05515a054442ef5f45888b5a5635f4b6158e903a0e09f3e09edfd2b5556035a8",
    "verify hopf --json": "f39e898ab86dda58d30380f340efa14775ff599c4913dddd3049602765cf656b",
    "verify closure --json": "504077c70e150ac100b651213362650ac99a445e2983ca7192bf2fb253ef7765",
    # closure at the cap: the default families, and all
    "verify closure --max-degree 5 --json": "4a919e21eba4c2f71aa93c2925e93973ecc7f8f0b3eb9b1052a161ab4d9e1627",
    "verify closure --max-degree 5 --family all --json": "deece277b34b18d6df1740e1c85170b79df9c88dfacf93d8161ea0ddd063a04b",
    # the JSON forms of hist, count and filtered enumerate
    "hist m --order 3 --json": "a75a9659debef7128545a1f6e7153547efc42a607ddd6ecc286962902aeca59f",
    "hist m --order 4 --family matching --json": "34fdfd682a0b7ac5c401e9bc6e7b04016f210f4febe5da4e8999bcc64b3c6ab3",
    # hist m at order 5, under the enumeration cap: the digests of
    # `hist m --order 5 --max-order 5` from when hist had its own cap of 4
    "hist m --order 5": "162843c17119638212ffba1909142a21d8ab699cff04a28864131325d39ef17e",
    "hist m --order 5 --json": "ea94b56f9078ff4ff3e97a8f8f45cc3b50aa2205945f2cdf72d19a7200191076",
    "count --order 4 --irreducible --json": "617503461b7a1c700b1d34275611f95a36510189d68ca19b1bcf194f714d980a",
    "count --order 3 --bullet-irreducible --json": "6d57b664a1e6a401b8352095ad40cb5f8a5b95f32786bed036895569bcbdf2b8",
    "enumerate --order 2 --irreducible --json": "e3163f5f99c5dbb4698d6ee878a7785415f92c8ffdc3815969cb796e0bfe89f7",
    "enumerate --order 3 --irreducible --bullet-irreducible --json": "893d54a8d1e09a0e2d38d8f1217c03b4ef38c17eee760adcb785bf31e28eea08",
}


@pytest.mark.parametrize(
    "command", sorted(GOLDEN), ids=lambda c: c.replace(ALTERNATING, "ALTERNATING")
)
def test_stdout_digest(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split(" "))
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[command]
