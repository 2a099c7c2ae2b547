"""Byte-identical CLI output: sha256 digests of stdout for the element
operations on three fixed diagrams (one of them a reducible word), the
antipode and E-expansion of two long reducible words, the embedding phi, the verification reports (closure per family at degree 4,
planar at 3), the dimension sequences with a closed form, and the
members of every family (listed in enumeration order, counted and binned by
the bullet statistic).
Each key is the argv, space-joined; a refactor must leave every digest
unchanged."""

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
    "verify closure --max-degree 3": "0465a7127001f96cac78fec64e32ce0e7a28f59e750ef1691526914a2f26f418",
    "verify closure --max-degree 3 --json": "504077c70e150ac100b651213362650ac99a445e2983ca7192bf2fb253ef7765",
    # exhaustive sweeps: the order-5 generator count and the family counts
    "count --order 5 --irreducible": "190abdcf8d670dd94ee3417ab646bcd2a565a02728105026bac6025f8ffffef0",
    "verify counts --terms 5": "fabcb58a22a13dc28004e5115cdda913260c9fd7dd2796737603e44c14c232ee",
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
