"""YCSB transaction procedures.

Key selection follows YCSB's request distributions: a scrambled-Zipfian
chooser over the loaded key space (hotspot/latest variants are available
through the benchmark's ``request_distribution`` parameter).  Inserts append
at the tail of the key space like YCSB's transactional insert sequence.
"""

from __future__ import annotations

import random

from ...core.procedure import Procedure, UserAbort
from ...rand import (HotspotGenerator, LatestGenerator,
                     ScrambledZipfGenerator, random_string)
from .schema import FIELD_COUNT, FIELD_LENGTH

ALL_FIELDS = ", ".join(f"field{i}" for i in range(1, FIELD_COUNT + 1))
_PLACEHOLDERS = ", ".join("?" for _ in range(FIELD_COUNT))


class _YcsbProcedure(Procedure):
    """Shared key-chooser logic."""

    def _chooser(self):
        dist = self.params.get("request_distribution", "zipfian")
        record_count = int(self.params["record_count"])
        cache = self.params.setdefault("_chooser_cache", {})
        key = (dist, record_count)
        chooser = cache.get(key)
        if chooser is None:
            if dist == "zipfian":
                chooser = ScrambledZipfGenerator(record_count)
            elif dist == "latest":
                chooser = LatestGenerator(record_count)
            elif dist == "hotspot":
                chooser = HotspotGenerator(record_count)
            elif dist == "uniform":
                chooser = None
            else:
                raise ValueError(f"unknown distribution {dist!r}")
            cache[key] = chooser
        return chooser

    def _pick_key(self, rng: random.Random) -> int:
        chooser = self._chooser()
        if chooser is None:
            return rng.randrange(int(self.params["record_count"]))
        return chooser.next(rng)

    @staticmethod
    def _random_fields(rng: random.Random) -> list[str]:
        return [random_string(rng, FIELD_LENGTH)
                for _ in range(FIELD_COUNT)]


class ReadRecord(_YcsbProcedure):
    name = "ReadRecord"
    read_only = True
    default_weight = 50

    def run(self, conn, rng):
        cur = conn.cursor()
        cur.execute(
            f"SELECT ycsb_key, {ALL_FIELDS} FROM usertable WHERE ycsb_key = ?",
            (self._pick_key(rng),))
        cur.fetchall()
        conn.commit()


class UpdateRecord(_YcsbProcedure):
    name = "UpdateRecord"
    default_weight = 20

    def run(self, conn, rng):
        field = rng.randint(1, FIELD_COUNT)
        cur = conn.cursor()
        cur.execute(
            f"UPDATE usertable SET field{field} = ? WHERE ycsb_key = ?",
            (random_string(rng, FIELD_LENGTH), self._pick_key(rng)))
        conn.commit()


class ScanRecord(_YcsbProcedure):
    name = "ScanRecord"
    read_only = True
    default_weight = 10

    MAX_SCAN = 20

    def run(self, conn, rng):
        start = self._pick_key(rng)
        length = rng.randint(1, self.MAX_SCAN)
        cur = conn.cursor()
        cur.execute(
            "SELECT ycsb_key FROM usertable "
            "WHERE ycsb_key >= ? AND ycsb_key < ? ORDER BY ycsb_key",
            (start, start + length))
        cur.fetchall()
        conn.commit()


class InsertRecord(_YcsbProcedure):
    name = "InsertRecord"
    default_weight = 10

    def run(self, conn, rng):
        # Claim the next key of the benchmark's insert sequence, which
        # starts past the loaded tail: concurrent inserters never share
        # a key, and the sequence replays exactly on the simulator.
        key = next(self.params["insert_key_counter"])
        cur = conn.cursor()
        cur.execute(
            f"INSERT INTO usertable (ycsb_key, {ALL_FIELDS}) "
            f"VALUES (?, {_PLACEHOLDERS})",
            (key, *self._random_fields(rng)))
        conn.commit()


class DeleteRecord(_YcsbProcedure):
    name = "DeleteRecord"
    default_weight = 5

    def run(self, conn, rng):
        cur = conn.cursor()
        cur.execute("DELETE FROM usertable WHERE ycsb_key = ?",
                    (self._pick_key(rng),))
        conn.commit()


class ReadModifyWriteRecord(_YcsbProcedure):
    name = "ReadModifyWriteRecord"
    default_weight = 5

    def run(self, conn, rng):
        key = self._pick_key(rng)
        cur = conn.cursor()
        cur.execute(
            f"SELECT {ALL_FIELDS} FROM usertable WHERE ycsb_key = ? "
            "FOR UPDATE", (key,))
        row = cur.fetchone()
        if row is not None:
            field = rng.randint(1, FIELD_COUNT)
            cur.execute(
                f"UPDATE usertable SET field{field} = ? WHERE ycsb_key = ?",
                (random_string(rng, FIELD_LENGTH), key))
        conn.commit()


PROCEDURES = (ReadRecord, InsertRecord, ScanRecord, UpdateRecord,
              DeleteRecord, ReadModifyWriteRecord)
