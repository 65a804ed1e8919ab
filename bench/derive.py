"""Write the program's complement derivations for the ``proof-check`` inputs.

    python3 bench/derive.py SRC < jobs.json

``jobs.json`` is a JSON list of ``[stem, expression]`` pairs over the
alphabet ``a b``. For each, ``rll.calculus.derive_complement`` is run and its
two derivations are written to ``<stem>plus.json`` (``top <= e + f``) and
``<stem>meet.json`` (``e & f <= 0``). The benchmark runs this in a child
process, so that generation neither fills the program's memo caches nor adds
to the peak memory of the process whose operations are measured.
"""

import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from rll.calculus import derivation_to_json, derive_complement
    from rll.syntax import Alphabet, parse_expr

    ab = Alphabet.plain("a", "b")
    for stem, text in json.load(sys.stdin):
        plus, meet = derive_complement(parse_expr(text, ab), ab)
        for tag, d in (("plus", plus), ("meet", meet)):
            with open(f"{stem}{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(derivation_to_json(d), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
