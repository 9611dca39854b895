import dataclasses
import json
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import complete_host, face_text, random_host, random_threegraph
from homeofind import cli
from homeofind.cli import main
from homeofind.core import (
    Config,
    ThreeGraph,
    TripartiteHost,
    build_aux_graph,
    covered_pairs,
    euler_characteristic,
)
from homeofind.embed import find_homeomorph
from homeofind.errors import NoQualifyingVertex
from homeofind.io import (
    TABLE_BITS_FLOOR,
    TABLE_BITS_PER_CHAR,
    FormatError,
    load_certificate,
    load_target,
    parse_certificate,
    parse_host,
    parse_threegraph,
    write_certificate,
    write_host,
    write_threegraph,
)
from homeofind.verify import canonical_glued_subdivision, verify_certificate
from test_verify import isolated_vertex_certificate_text

TRIANGLE = ThreeGraph(3, frozenset({(0, 1, 2)}))

# a triangle certificate as written on complete_host(10): three disk blocks
TRIANGLE_CERT = """\
cert v1
tg 3
f 0 1 2
disk 0 0 0 1 8 1
hf 0 0 1
hf 0 1 1
hf 8 1 1
hf 8 0 1
disk 1 1 7 2 8 2
hf 7 1 2
hf 7 2 2
hf 8 2 2
hf 8 1 2
disk 2 2 6 0 8 3
hf 6 2 3
hf 6 0 3
hf 8 0 3
hf 8 2 3
"""


def _triangle_cert_with(lineno, line):
    """``TRIANGLE_CERT`` with line ``lineno`` replaced by ``line``: dropped
    when ``line`` is None, appended when ``lineno`` is one past the end."""
    lines = TRIANGLE_CERT.splitlines()
    lines[lineno - 1:lineno] = [] if line is None else [line]
    return "\n".join(lines) + "\n"


class TestThreeGraphFormat:
    def test_round_trip(self):
        for seed in range(20):
            h = random_threegraph(random.Random(seed))
            assert parse_threegraph(write_threegraph(h)) == h

    def test_comments_and_blank_lines(self):
        text = "# a target\n\ntg 3\n  # indented comment\nf 0 1 2\n"
        assert parse_threegraph(text) == TRIANGLE

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_threegraph("graph 3\nf 0 1 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError):
            parse_threegraph("tg 3\nf 0 1 3\n")

    def test_repeated_vertex_in_face(self):
        with pytest.raises(FormatError):
            parse_threegraph("tg 3\nf 0 1 1\n")

    @pytest.mark.parametrize("text, message", [
        ("tg 3\nf 0 1 9\n", "line 2: face (0, 1, 9) out of range"),
        ("tg 3\n# c\nf 0 0 1\n", "line 3: face (0, 0, 1) has repeated vertices"),
        ("tg 3\nf 0 1 2\nf -1 0 1\n", "line 3: face (-1, 0, 1) out of range"),
        ("\ntg -1\n", "line 2: vertex_count must be non-negative"),
    ])
    def test_bad_target_names_its_line(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_threegraph(text)
        assert str(info.value) == message

    def test_non_integer_token(self):
        with pytest.raises(FormatError, match=r"^line 3: .*'b'"):
            parse_threegraph("tg 3\n\nf 0 b 2\n")
        with pytest.raises(FormatError, match=r"^line 1: .*'x'"):
            parse_threegraph("tg x\n")

    def test_builtin_targets(self):
        tri = load_target("builtin:triangle")
        assert tri == TRIANGLE
        k4 = load_target("builtin:k4")
        assert k4 == ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}))
        torus = load_target("builtin:torus7")
        # faces {i, i+1, i+3} and {i, i+2, i+3} mod 7
        assert torus == ThreeGraph(7, frozenset(
            tuple(sorted({i, (i + a) % 7, (i + 3) % 7})) for i in range(7) for a in (1, 2)
        ))
        assert euler_characteristic(torus) == 0

    def test_unknown_builtin(self):
        with pytest.raises(FormatError):
            load_target("builtin:klein")

    @pytest.mark.parametrize("name", ["", "nope", "torus7.tg", "../data/torus7"])
    def test_builtin_must_be_a_shipped_stem(self, name):
        with pytest.raises(FormatError, match=r"shipped: .*\btorus7\b"):
            load_target(f"builtin:{name}")

    def test_load_target_from_file(self, tmp_path):
        p = tmp_path / "t.tg"
        p.write_text(write_threegraph(TRIANGLE))
        assert load_target(str(p)) == TRIANGLE


class TestHostFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        host = random_host(rng, 4, 5, 6, 0.5)
        assert parse_host(write_host(host)) == host
        assert parse_host(face_text(host)) == host

    def test_written_as_one_mask_line_per_entry(self):
        host = TripartiteHost((2, 3, 9), {(0, 2, 0), (0, 2, 8), (1, 0, 4)})
        assert write_host(host) == "tph 2 3 9\nm 0 2 101\nm 1 0 10\n"

    def test_face_and_mask_lines_of_one_entry_or_together(self):
        text = "tph 2 2 8\nf 1 0 0\nm 1 0 0x0C\nm 0 1 1\nf 1 0 2\nm 1 0 +8_0\n"
        host = parse_host(text)
        assert host.zmasks == {2: 0b10001101, 1: 1}
        assert host == TripartiteHost((2, 2, 8), {(1, 0, 0), (1, 0, 2), (1, 0, 3), (1, 0, 7), (0, 1, 0)})

    def test_face_out_of_class(self):
        with pytest.raises(FormatError):
            parse_host("tph 2 2 2\nf 0 0 2\n")

    def test_header_shape(self):
        with pytest.raises(FormatError):
            parse_host("tph 2 2\nf 0 0 0\n")

    @pytest.mark.parametrize("text, message", [
        ("f 0 0 0\ntph 1 1 1\n", "line 1: face before tph header"),
        ("tph 1 1 1\n#\ntph 1 1 1\n", "line 3: duplicate tph header"),
        ("tph 1 1 1\nf 0 0\n", "line 2: expected 'f x y z'"),
        ("tph 1 1 1\n\n g 0 0 0\n", "line 3: unknown directive 'g'"),
        ("# only a comment\n", "missing tph header"),
        # the first malformed line in file order, whatever is wrong with it
        ("tph 2 2 2\nf 0 0 0\nf 5 0 0\nf 0 9 0\n", "line 3: x = 5 is outside [0, 2)"),
        ("tph 2 2 2\nf 0 9 0\n", "line 2: y = 9 is outside [0, 2)"),
        ("tph 2 2 2\nf 0 0 5\nf 0 0\n", "line 2: z = 5 is outside [0, 2)"),
        ("tph 2 2 2\nf 0 0 -1\nf 0 0 a\n", "line 2: z = -1 is outside [0, 2)"),
        # a header's sizes are checked on the header line
        ("tph 2 -1 2\nf 0 0 0\n",
         "line 1: class sizes must be three non-negative integers, got (2, -1, 2)"),
        ("tph -1 2 2\n", "line 1: class sizes must be three non-negative integers, got (-1, 2, 2)"),
        # a mask line: its x and y as a face line's, then its mask
        ("m 0 0 1\ntph 1 1 1\n", "line 1: mask before tph header"),
        ("tph 1 1 1\nm 0 0\n", "line 2: expected 'm x y HEX'"),
        ("tph 1 1 4\nm 0 0 1 1\n", "line 2: expected 'm x y HEX'"),
        ("tph 1 1 4\nm 0 0 f\nm 0 0 10\n", "line 3: z = 4 is outside [0, 4)"),
        ("tph 1 1 4\nm 0 0 0\n", "line 2: mask 0 names no face"),
        ("tph 1 1 4\nm 0 0 -1\n", "line 2: mask is negative"),
        ("tph 1 1 4\nm 0 0 g\n", "line 2: invalid literal for int() with base 16: 'g'"),
        ("tph 1 1 4\nm 1 0 g\n", "line 2: x = 1 is outside [0, 1)"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_host(text)
        assert str(info.value) == message

    def test_non_integer_token(self):
        with pytest.raises(FormatError, match=r"^line 2: .*'a'"):
            parse_host("tph 2 2 2\nf 0 a 1\n")
        with pytest.raises(FormatError, match=r"^line 2: .*'x'"):
            parse_host("# host\ntph 2 x 2\n")

    def test_huge_header_allocates_nothing_in_proportion(self):
        # coordinates are checked against the sizes once per distinct value;
        # no table is sized from the header
        tracemalloc.start()
        try:
            host = parse_host(f"tph {10**12} {10**12} {10**12}\nf 0 0 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert host == TripartiteHost((10**12,) * 3, frozenset({(0, 0, 0)}))
        assert peak < 1 << 20

    def test_table_bounded_by_text(self):
        # one line asks for a 10**12-bit mask: refused before the mask exists
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^line 2: a host table .* budget"):
                parse_host(f"tph 1 1 {10**12}\nf 0 0 {10**12 - 1}\n")
            # a z outside its class gets no bit either
            with pytest.raises(FormatError, match=rf"^line 3: z = {10**12} is outside \[0, 2\)$"):
                parse_host(f"tph 1 1 2\nf 0 0 1\nf 0 0 {10**12}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_spellings_of_one_z_share_one_bit(self):
        # 53 spellings of z = 8 000 000 are one face.  Above MEMO_BELOW each
        # line makes its own 1 MB bit, which lives only until it joins the
        # entry's mask (53 bits held at once would take 53 MB)
        z = 8_000_000
        arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
        spellings = ["0" * k + str(z) for k in range(50)] + [f"+{z}", f"{z:_}", str(z).translate(arabic)]
        text = f"tph 1 1 {10**9}\n" + "".join(f"f 0 0 {s}\n" for s in spellings)
        tracemalloc.start()
        try:
            host = parse_host(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert host.zmasks == {0: 1 << z}
        assert peak < 6 << 20

    def test_z_memo_stays_small(self):
        # 50 000 distinct z on one entry: a bit kept per distinct z would
        # hold 50 000**2 / 2 bits, some 150 MB
        nz = 50_000
        text = f"tph 1 1 {nz}\n" + "".join(f"f 0 0 {z}\n" for z in range(nz))
        tracemalloc.start()
        try:
            host = parse_host(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert host.e == nz
        assert peak < 32 << 20

    def test_table_bound_counts_entries(self):
        # each new (x, y) entry may hold up to the largest z + 1 bits; the
        # line that opens the entry passing the budget is named
        top = 10**5
        text = f"tph 1000 1 {top}\n" + "".join(f"f {x} 0 {top - 1}\n" for x in range(200))
        budget = TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR
        first_over = budget // top + 1
        assert first_over <= 200
        with pytest.raises(FormatError, match=rf"^line {1 + first_over}: .* {first_over} \(x, y\) masks"):
            parse_host(text)
        # the floor alone admits this many entries, whatever the text
        fits = TABLE_BITS_FLOOR // top
        assert parse_host("".join(text.splitlines(keepends=True)[:1 + fits])).e == fits

    def test_table_bound_counts_entries_of_mask_lines(self):
        # a mask line's own text pays 16 bits per bit of its mask, but each
        # later entry, however short its mask, may hold as many bits as the
        # widest mask read
        top = 10**5
        text = f"tph 1000 1 {top}\nm 0 0 {1 << top - 1:x}\n" + "".join(f"m {x} 0 1\n" for x in range(1, 200))
        budget = TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR
        first_over = budget // top + 1
        assert first_over <= 200
        with pytest.raises(FormatError, match=rf"^line {1 + first_over}: .* {first_over} \(x, y\) masks"):
            parse_host(text)
        # the same masks in the other order: the wide mask is the line refused
        text = f"tph 1000 1 {top}\n" + "".join(f"m {x} 0 1\n" for x in range(1, 200)) + f"m 0 0 {1 << top - 1:x}\n"
        assert (TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR) // top < 200
        with pytest.raises(FormatError, match=r"^line 201: a host table of 200 \(x, y\) masks"):
            parse_host(text)

    def test_a_wide_mask_parses_in_linear_time(self):
        # one entry of 10**6 faces: 12.9 MB of face lines, whose parse ORs
        # each bit into a mask up to 10**6 bits wide, or one 250 kB mask line
        nz = 10**6
        text = f"tph 1 1 {nz}\nm 0 0 {(1 << nz) - 1:x}\n"
        start = time.perf_counter()
        host = parse_host(text)
        assert time.perf_counter() - start < 1
        assert host.e == nz

    def test_table_bound_counts_a_revisited_entry_once(self):
        # a new largest z on an entry the table already holds counts that
        # entry once: two entries of z + 1 bits fill the budget exactly
        head = "tph 2 1 10000000\nf 0 0 0\nf 1 0 0\nf 0 0 "
        budget = TABLE_BITS_PER_CHAR * (len(head) + 8) + TABLE_BITS_FLOOR
        text = f"{head}{budget // 2 - 1}\n"
        assert len(text) == len(head) + 8
        assert parse_host(text).e == 3
        with pytest.raises(FormatError, match=r"^line 4: a host table of 2 \(x, y\) masks"):
            parse_host(f"{head}{budget // 2}\n")

    def test_written_hosts_stay_inside_the_bound(self):
        for host in (complete_host(12), random_host(random.Random(3), 7, 9, 70, 0.05)):
            text = write_host(host)
            bits = len(host.zmasks) * max(m.bit_length() for m in host.zmasks.values())
            assert bits <= TABLE_BITS_PER_CHAR * len(text)
            assert parse_host(text) == host


class TestCertificateFormat:
    def test_round_trip(self):
        host = complete_host(10)
        cert = find_homeomorph(host, TRIANGLE, Config(C=1, k_threshold=3, rng_seed=2))
        text = write_certificate(cert)
        back = parse_certificate(text)
        assert back == cert
        assert verify_certificate(back, host).passed

    def test_isolated_vertex_survives(self):
        # tg 4 with one face: the v1 line keeps the count within its bound
        lonely = ThreeGraph(4, frozenset({(0, 1, 2)}))
        host = complete_host(10)
        cert = find_homeomorph(host, lonely, Config(C=1, k_threshold=3, rng_seed=2))
        back = parse_certificate(write_certificate(cert))
        assert back.embedding.v1_map == cert.embedding.v1_map
        assert 3 in back.embedding.v1_map

    def test_conflicting_v1_lines(self):
        host = complete_host(10)
        cert = find_homeomorph(host, TRIANGLE, Config(C=1, k_threshold=3, rng_seed=2))
        lines = write_certificate(cert).splitlines()
        lines.append("v1 0 9")
        lines.append("v1 0 8")
        with pytest.raises(FormatError):
            parse_certificate("\n".join(lines) + "\n")

    def test_missing_header(self):
        with pytest.raises(FormatError) as info:
            parse_certificate("tg 3\nf 0 1 2\n")
        assert str(info.value) == "missing 'cert v1' header"

    @pytest.mark.parametrize("text, message", [
        ("# c\n", "missing 'cert v1' header"),
        ("cert v1\ntg 3\n# c\ncert v1\n", "line 4: duplicate cert header"),
        ("cert v1\ncert v2\n", "line 2: duplicate cert header"),
        ("cert v2\n", "line 1: unsupported certificate version"),
    ])
    def test_cert_header_errors(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_certificate(text)
        assert str(info.value) == message

    def test_non_integer_token(self):
        text = "cert v1\ntg 3\nf 0 1 2\ndisk a 0 3 1 4 5\n"
        with pytest.raises(FormatError, match=r"^line 4: .*'a'"):
            parse_certificate(text)

    @pytest.mark.parametrize("text, message", [
        ("cert v1\n\n# c\ntg 3\nf 0 1 x\n", r"^line 5: .*'x'"),
        ("cert v1\ntg 3\nf 0 1 2\ntg 3\n", r"^line 4: duplicate tg header$"),
        ("cert v1\ntg 3\nf 0 1 9\n", r"^line 3: face \(0, 1, 9\) out of range$"),
        ("cert v1\ntg 3\n\nf 0 0 1\n", r"^line 4: face \(0, 0, 1\) has repeated vertices$"),
        ("cert v1\ntg -1\n", r"^line 2: vertex_count must be non-negative$"),
    ])
    def test_target_block_errors_name_certificate_line(self, text, message):
        with pytest.raises(FormatError, match=message):
            parse_certificate(text)

    @pytest.mark.parametrize("text, lineno", [
        ("cert v1\ntg 3\nf 0 1 2\ndisk 0 0 3 1 4 5\nhf 1 2\n", 5),
        ("cert v1\ntg 3\nf 0 1 2\ndisk 0 0 3 1 4 5\nhf 0 0 0\n# c\nhf 1 2 3 4\n", 7),
    ])
    def test_malformed_hf_line_names_its_line(self, text, lineno):
        with pytest.raises(FormatError) as info:
            parse_certificate(text)
        assert str(info.value) == f"line {lineno}: expected 'hf x y z'"

    def test_missing_disk_block(self):
        # the last disk line and its four hf lines dropped
        text = "".join(TRIANGLE_CERT.splitlines(keepends=True)[:-5])
        with pytest.raises(FormatError) as info:
            parse_certificate(text)
        assert str(info.value) == "certificate has 2 disk blocks, target requires 3"

    def test_triangle_cert_parses(self):
        host = complete_host(10)
        cert = find_homeomorph(host, TRIANGLE, Config(C=1, k_threshold=3, rng_seed=2))
        assert parse_certificate(TRIANGLE_CERT) == cert

    @pytest.mark.parametrize("lineno, line, message", [
        (3, "f 0 1", "line 3: expected 'f a b c'"),
        (4, "disk 0 0 0 1 8", "line 4: expected 'disk ci a u b w center'"),
        (9, "disk 0 1 7 2 8 2", "line 9: bad or duplicate cycle index 0"),
        (14, "disk 3 2 6 0 8 3", "line 14: bad or duplicate cycle index 3"),
        (12, None, "line 9: disk 1 must carry exactly four 'hf x y z' faces"),
        (9, "disk 1 1 7 2 9 2", "line 9: inconsistent v2 image for 6: 8 vs 9"),
        (14, "disk 2 2 6 1 8 3", "line 14: inconsistent v1 image for 0: 0 vs 1"),
        (19, "v1 0 9", "line 19: inconsistent v1 image for 0: 0 vs 9"),
    ])
    def test_block_errors_name_their_line(self, lineno, line, message):
        with pytest.raises(FormatError) as info:
            parse_certificate(_triangle_cert_with(lineno, line))
        assert str(info.value) == message

    @pytest.mark.parametrize("count", [4_000_000, 10**9])
    def test_oversized_tg_count_rejected_before_building(self, monkeypatch, count):
        def never(target):
            raise AssertionError("build_aux_graph called on an unbounded target")

        monkeypatch.setattr("homeofind.io.build_aux_graph", never)
        with pytest.raises(FormatError) as info:
            parse_certificate(f"cert v1\n# c\ntg {count}\nf 0 1 2\nv1 3 7\n")
        assert str(info.value) == (
            f"line 3: tg {count} names more vertices than its "
            "1 face lines and 1 v1 lines can place"
        )


class TestCli:
    def _write_host(self, tmp_path, host, name="h.tph"):
        p = tmp_path / name
        p.write_text(write_host(host))
        return str(p)

    def test_find_verify_round_trip(self, tmp_path):
        hostp = self._write_host(tmp_path, complete_host(10))
        certp = str(tmp_path / "out.cert")
        rc = main([
            "find", "--target", "builtin:triangle", "--host", hostp,
            "--C", "1", "--k", "3", "--seed", "0", "--out", certp,
        ])
        assert rc == 0
        assert main(["verify", "--cert", certp, "--host", hostp]) == 0

    def test_find_takes_a_negative_seed(self, tmp_path):
        hostp = self._write_host(tmp_path, complete_host(10))
        certp = str(tmp_path / "out.cert")
        assert main([
            "find", "--target", "builtin:triangle", "--host", hostp,
            "--C", "1", "--k", "3", "--seed", "-9", "--out", certp,
        ]) == 0
        assert main(["verify", "--cert", certp, "--host", hostp]) == 0

    def test_verify_rejects_wrong_host(self, tmp_path):
        hostp = self._write_host(tmp_path, complete_host(10))
        empty = self._write_host(
            tmp_path, TripartiteHost((10, 10, 10), frozenset()), "e.tph"
        )
        certp = str(tmp_path / "out.cert")
        assert main([
            "find", "--target", "builtin:triangle", "--host", hostp,
            "--C", "1", "--k", "3", "--out", certp,
        ]) == 0
        assert main(["verify", "--cert", certp, "--host", empty]) == 1

    def test_verify_rejects_isolated_vertex_outside_y(self, tmp_path, capsys):
        host = complete_host(12)
        hostp = self._write_host(tmp_path, host)
        certp = tmp_path / "bad.cert"
        certp.write_text(isolated_vertex_certificate_text(host, "v1 3 999"))
        assert main(["verify", "--cert", str(certp), "--host", hostp]) == 1
        assert "fail check=7: " in capsys.readouterr().err

    def test_find_failure_exit_code(self, tmp_path, capsys):
        empty = self._write_host(tmp_path, TripartiteHost((5, 5, 5), frozenset()))
        rc = main([
            "find", "--target", "builtin:triangle", "--host", empty,
            "--C", "1", "--k", "3", "--out", str(tmp_path / "x.cert"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pick_link_vertex" in err
        # --out is opened before the search, and a not-found run leaves it empty
        assert (tmp_path / "x.cert").read_text() == ""

    @pytest.mark.parametrize("flag, text", [("--C", "abc"), ("--delta", "1/0")])
    def test_non_rational_flag_exit_2(self, tmp_path, capsys, flag, text):
        # argparse refuses the value before any file is opened, and main
        # returns its exit code rather than raising SystemExit
        rc = main(["find", "--target", "builtin:triangle", "--host", str(tmp_path / "h.tph"),
                   flag, text, "--out", str(tmp_path / "x.cert")])
        assert rc == 2
        assert f"not a rational: {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.cert").exists()

    def test_non_integer_flag_exit_2(self, tmp_path, capsys):
        rc = main(["find", "--target", "builtin:triangle", "--host", str(tmp_path / "h.tph"),
                   "--k", "abc", "--out", str(tmp_path / "x.cert")])
        assert rc == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "x.cert").exists()

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["find", "--help"]) == 0
        assert "--target" in capsys.readouterr().out

    def test_capacity_failure_exit_code(self, tmp_path, capsys):
        small = self._write_host(tmp_path, TripartiteHost((3, 5, 5), frozenset()))
        rc = main([
            "find", "--target", "builtin:triangle", "--host", small,
            "--C", "1", "--k", "3", "--out", str(tmp_path / "x.cert"),
        ])
        assert rc == 1
        assert "stage=capacity" in capsys.readouterr().err

    def test_empty_target_gets_valid_defaults(self, tmp_path, capsys):
        # v(H) = 0 must not give C = 0 or K = 0: with no flags the search
        # runs (and fails at the z-scan under the paper's C), and with desk
        # constants the empty copy is found and verified
        hostp = self._write_host(tmp_path, complete_host(5))
        targetp = tmp_path / "e.tg"
        targetp.write_text("tg 0\n")
        certp = str(tmp_path / "x.cert")
        rc = main(["find", "--target", str(targetp), "--host", hostp, "--out", certp])
        assert rc == 1
        assert "stage=pick_link_vertex" in capsys.readouterr().err
        rc = main([
            "find", "--target", str(targetp), "--host", hostp,
            "--C", "2", "--k", "1", "--out", certp,
        ])
        assert rc == 0 and "found: 0 host faces" in capsys.readouterr().out
        assert main(["verify", "--cert", certp, "--host", hostp]) == 0

    def test_huge_target_stops_at_capacity(self, tmp_path, capsys, monkeypatch):
        # v(H) <= n_y is checked before the auxiliary graph (with its
        # v(H)-long V1) is built
        def never(target):
            raise AssertionError("build_aux_graph called on a target that cannot fit")

        monkeypatch.setattr("homeofind.embed.build_aux_graph", never)
        hostp = self._write_host(tmp_path, complete_host(5))
        targetp = tmp_path / "huge.tg"
        targetp.write_text(f"tg {10**9}\nf 0 1 2\n")
        rc = main([
            "find", "--target", str(targetp), "--host", hostp,
            "--C", "1", "--k", "3", "--out", str(tmp_path / "x.cert"),
        ])
        assert rc == 1
        assert f"stage=capacity: v(H) = {10**9} exceeds n_y = 5" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path):
        assert main(["find", "--target", "builtin:nope", "--host", "missing.tph",
                     "--out", str(tmp_path / "x.cert")]) == 2
        assert main(["verify", "--cert", str(tmp_path / "absent.cert"),
                     "--host", str(tmp_path / "absent.tph")]) == 2

    def test_verify_directory_paths_exit_2(self, tmp_path, capsys):
        assert main(["verify", "--cert", str(tmp_path), "--host", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_gen_directory_out_exit_2(self, tmp_path, capsys):
        assert main(["gen", "--nx", "3", "--ny", "3", "--nz", "3", "--p", "1",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("victim", ["host", "target"])
    def test_find_out_naming_an_input_exit_2(self, tmp_path, capsys, victim):
        # --out may not truncate the file it is about to read, also when it
        # is spelled differently from the input path
        hostp = self._write_host(tmp_path, complete_host(10))
        targetp = tmp_path / "t.tg"
        targetp.write_text(write_threegraph(ThreeGraph(3, frozenset({(0, 1, 2)}))))
        victim_path = hostp if victim == "host" else str(targetp)
        before = Path(victim_path).read_bytes()
        out = f"{tmp_path}/./{Path(victim_path).name}"
        rc = main(["find", "--target", str(targetp), "--host", hostp,
                   "--C", "1", "--k", "3", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"--{victim}" in err
        assert Path(victim_path).read_bytes() == before

    def test_find_directory_out_exit_2(self, tmp_path, capsys, monkeypatch):
        # an unwritable --out fails before the host is read or searched
        def never(*args):
            raise AssertionError("called before --out was opened")

        monkeypatch.setattr("homeofind.cli.load_host", never)
        monkeypatch.setattr("homeofind.cli.find_homeomorph", never)
        assert main(["find", "--target", "builtin:triangle", "--host", "h.tph",
                     "--C", "1", "--k", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_tg_header_without_count_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tg"
        bad.write_text("tg\nf 0 1 2\n")
        assert main(["inspect", "--target", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: expected 'tg n'")
        assert "Traceback" not in err

    def test_missing_disk_block_exit_2(self, tmp_path, capsys):
        hostp = self._write_host(tmp_path, complete_host(10))
        certp = tmp_path / "short.cert"
        certp.write_text("".join(TRIANGLE_CERT.splitlines(keepends=True)[:-5]))
        assert main(["verify", "--cert", str(certp), "--host", hostp]) == 2
        err = capsys.readouterr().err
        assert err == "error: certificate has 2 disk blocks, target requires 3\n"

    def test_truncated_v1_line_exit_2(self, tmp_path, capsys):
        hostp = self._write_host(tmp_path, complete_host(10))
        certp = tmp_path / "bad.cert"
        certp.write_text("cert v1\ntg 4\nf 0 1 2\nv1 0\n")
        assert main(["verify", "--cert", str(certp), "--host", hostp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: expected 'v1 v y'")
        assert "Traceback" not in err

    def test_host_over_its_table_bound_exit_2(self, tmp_path, capsys):
        hostp = self._write_host(tmp_path, complete_host(10))
        certp = str(tmp_path / "out.cert")
        assert main([
            "find", "--target", "builtin:triangle", "--host", hostp,
            "--C", "1", "--k", "3", "--out", certp,
        ]) == 0
        hostile = tmp_path / "hostile.tph"
        hostile.write_text(f"tph 1 1 {10**12}\nf 0 0 {10**12 - 1}\n")
        assert main(["verify", "--cert", certp, "--host", str(hostile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: a host table")
        assert "Traceback" not in err

    def test_non_integer_host_token_exit_2(self, tmp_path, capsys):
        hostp = tmp_path / "bad.tph"
        hostp.write_text("tph 3 3 3\nf 0 0 0\nf 0 1 z\n")
        assert main([
            "find", "--target", "builtin:triangle", "--host", str(hostp),
            "--C", "1", "--k", "3", "--out", str(tmp_path / "x.cert"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, message", [
        ({"n_values": [12], "a": 1, "trials": 1}, "lacks the key 'target'"),
        ({"target": "builtin:triangle", "n_values": 6, "a": 1, "trials": 1},
         '"n_values" must be a list'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"foo": 1}}, "unknown sweep cfg key(s) ['foo']"),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 2.7},
         '"trials" must be an integer, got 2.7'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 2,
          "seed": 1.9}, '"seed" must be an integer, got 1.9'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": "3"},
         '"trials" must be an integer, got "3"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": True},
         '"trials" must be an integer, got true'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 2,
          "seed": "1"}, '"seed" must be an integer, got "1"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"k_threshold": 3.5}}, '"k_threshold" must be an integer, got 3.5'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"retry_limit": 1.5}}, '"retry_limit" must be an integer, got 1.5'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"retry_limit": True}}, '"retry_limit" must be an integer, got true'),
        ({"target": "builtin:triangle", "n_values": [True], "a": 1, "trials": 1},
         '"n_values" must be an integer, got true'),
        ({"target": "builtin:triangle", "n_values": [12, 20.0], "a": 1, "trials": 1},
         '"n_values" must be an integer, got 20.0'),
        ({"target": "builtin:triangle", "n_values": [12], "a": "1/0", "trials": 1},
         '"a" must be a rational, got "1/0"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "b": "1/0", "trials": 1},
         '"b" must be a rational, got "1/0"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"C": "1/0"}}, '"C" must be a rational, got "1/0"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"delta": "2/0"}}, '"delta" must be a rational, got "2/0"'),
        ({"target": "builtin:triangle", "n_values": [12], "a": "1e999", "trials": 1},
         "density rule overflows a float at n = 12"),
        ({"target": "builtin:triangle", "n_values": [12], "a": 1, "trials": 1,
          "cfg": {"C": 0}}, "C must be positive"),
        # p = (3/5) n**(1/5) is below 1 at n = 12, above it at n = 1000
        ({"target": "builtin:triangle", "n_values": [12, 1000], "a": "3/5", "b": "-1/5",
          "trials": 2}, "outside [0, 1] at n = 1000"),
    ])
    def test_malformed_sweep_spec_exit_2(self, tmp_path, capsys, spec, message):
        specp = tmp_path / "sweep.json"
        specp.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(specp), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        # the whole spec is checked before the out dir is made
        assert not (tmp_path / "r").exists()

    def test_gen_p_beyond_float_exit_2(self, tmp_path, capsys):
        # 1e999 is an exact rational, but no float: the range check comes first
        assert main(["gen", "--nx", "3", "--ny", "3", "--nz", "3", "--p", "1e999",
                     "--out", str(tmp_path / "h.tph")]) == 2
        err = capsys.readouterr().err
        assert err == "error: p must lie in [0, 1]\n"

    def test_gen_is_seeded(self, tmp_path):
        out1 = str(tmp_path / "a.tph")
        out2 = str(tmp_path / "b.tph")
        args = ["gen", "--nx", "6", "--ny", "6", "--nz", "6", "--p", "1/2",
                "--seed", "9"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert Path(out1).read_text() == Path(out2).read_text()
        host = parse_host(Path(out1).read_text())
        assert host.class_sizes == (6, 6, 6)

    def test_gen_p_one_is_complete(self, tmp_path):
        out = str(tmp_path / "c.tph")
        assert main(["gen", "--nx", "3", "--ny", "3", "--nz", "3", "--p", "1",
                     "--out", out]) == 0
        assert parse_host(Path(out).read_text()).e == 27

    def test_inspect(self, capsys):
        assert main(["inspect", "--target", "builtin:torus7"]) == 0
        out = capsys.readouterr().out
        assert "chi" in out and "0" in out

    def test_inspect_builtin_path_exits_2(self, capsys):
        assert main(["inspect", "--target", "builtin:../data/torus7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown builtin target")
        assert captured.err.count("\n") == 1

    @staticmethod
    def _inspect_by_building(h):
        """inspect's report, read off the built auxiliary graph and subdivision."""
        aux, canon = build_aux_graph(h), canonical_glued_subdivision(h)
        edges = {(a, u) for u, (_, ends) in zip(aux.v2, aux.v2_tags) for a in ends}
        return (
            f"vertices: {h.vertex_count}\n"
            f"faces: {h.e}\n"
            f"covered pairs: {len(covered_pairs(h))}\n"
            f"euler characteristic: {euler_characteristic(h)}\n"
            f"aux graph: |V1|={len(aux.v1)} |V2|={len(aux.v2)} "
            f"edges={len(edges)} special-cycles={len(aux.special_cycles)}\n"
            f"subdivision: vertices={canon.vertex_count} "
            f"faces={canon.face_count} chi={canon.euler_characteristic()}\n"
        )

    def test_inspect_counts_match_built_objects(self, tmp_path, capsys):
        rng = random.Random(41)
        specs = ["builtin:triangle", "builtin:k4", "builtin:torus7"]
        for i in range(20):
            path = tmp_path / f"r{i}.tg"
            path.write_text(write_threegraph(random_threegraph(rng)))
            specs.append(str(path))
        for spec in specs:
            assert main(["inspect", "--target", spec]) == 0
            assert capsys.readouterr().out == self._inspect_by_building(load_target(spec)), spec

    def test_inspect_memory_follows_the_file(self, tmp_path, capsys):
        # a two-line target naming 10**9 vertices: nothing is built per vertex
        path = tmp_path / "huge.tg"
        path.write_text("tg 1000000000\nf 0 1 2\n")
        tracemalloc.start()
        try:
            assert main(["inspect", "--target", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        out = capsys.readouterr().out
        assert "subdivision: vertices=1000000007 faces=12 chi=999999998\n" in out

    def test_sweep_from_spec(self, tmp_path):
        spec = {
            "target": "builtin:triangle",
            "n_values": [12],
            "a": 1.0,
            "b": 0.0,
            "trials": 2,
            "seed": 4,
            "cfg": {"C": "1", "k_threshold": 3},
        }
        specp = tmp_path / "sweep.json"
        specp.write_text(json.dumps(spec))
        outdir = tmp_path / "res"
        assert main(["sweep", "--spec", str(specp), "--out-dir", str(outdir)]) == 0
        rows = (outdir / "rows.tsv").read_text()
        assert "12" in rows
        certs = list(outdir.glob("*.cert"))
        assert len(certs) == 2
        for c in certs:
            cert = load_certificate(str(c))
            assert cert.target == TRIANGLE


class TestFindConfig:
    """``find`` takes every default from Config.paper_defaults."""

    def _cfg(self, monkeypatch, tmp_path, *flags) -> Config:
        seen = []

        def fake_find(host, target, cfg):
            seen.append(cfg)
            raise NoQualifyingVertex("not searched")

        monkeypatch.setattr(cli, "find_homeomorph", fake_find)
        hostp = tmp_path / "h.tph"
        hostp.write_text(write_host(complete_host(4)))
        assert main([
            "find", "--target", "builtin:k4", "--host", str(hostp),
            "--out", str(tmp_path / "x.cert"), *flags,
        ]) == 1
        return seen[0]

    def test_no_flags_gives_paper_defaults(self, monkeypatch, tmp_path):
        cfg = self._cfg(monkeypatch, tmp_path)
        assert cfg == Config.paper_defaults(load_target("builtin:k4"))

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--C", "3/2", "C", Fraction(3, 2)),
        ("--delta", "1/3", "delta", Fraction(1, 3)),
        ("--k", "50", "k_threshold", 50),
        ("--seed", "9", "rng_seed", 9),
        ("--retries", "5", "retry_limit", 5),
    ])
    def test_flag_sets_only_its_field(self, monkeypatch, tmp_path, flag, value, field, expected):
        cfg = self._cfg(monkeypatch, tmp_path, flag, value)
        defaults = Config.paper_defaults(load_target("builtin:k4"))
        assert cfg == dataclasses.replace(defaults, **{field: expected})

    def test_eps_flag_is_gone(self, tmp_path, capsys):
        assert main([
            "find", "--target", "builtin:k4", "--host", "h.tph",
            "--out", str(tmp_path / "x.cert"), "--eps", "1/5",
        ]) == 2
        assert "unrecognized arguments: --eps 1/5" in capsys.readouterr().err
