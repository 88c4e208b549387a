"""The JSON wire codecs: exact round-trips and clean request rejection.

The service layer's correctness rests on profiles surviving JSON
*exactly* (so the network tier is byte-identical to the local tiers);
cache keys are 64-hex strings and travel unchanged.  The HTTP plumbing
must reject malformed and oversized bodies with clean JSON errors, never
tracebacks, and a key of any other shape must reach no file, neither
through the server nor through the disk tier directly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cache import DiskProfileCache, ProfileCache
from repro.core import Planner
from repro.io.jsonflow import WIRE_FORMAT, profiles_from_dict, profiles_to_dict
from repro.service import CacheServer
from repro.workloads import purchases_flow
from tests.profiles import make_profile, tagged

#: Keys that are not 64 lowercase hex.  The first names a file outside
#: ``cache_dir`` and is exactly 64 characters, so a length-only check
#: would let it through.
_MALFORMED_KEYS = {
    "traversal-64": "../" + "a" * 61,
    "traversal": "../x",
    "upper-case": "A" * 64,
    "63-chars": "a" * 63,
    "tuple": ("k",),
}


@pytest.fixture(scope="module")
def evaluated_profile():
    flow = purchases_flow(rows_per_source=500)
    planner = Planner()
    return planner.evaluate_flow(flow), planner.estimator.cache_key(flow)


class TestProfileCodec:
    def test_profile_round_trip_is_exact(self, evaluated_profile):
        profile, _ = evaluated_profile
        wire = json.loads(json.dumps(profiles_to_dict([profile])))
        (back,) = profiles_from_dict(wire)
        assert back == profile
        assert back.scores == profile.scores  # float-exact
        assert set(back.values) == set(profile.values)
        for name, value in profile.values.items():
            assert back.values[name] == value  # dataclass equality, all fields

    def test_profile_round_trip_survives_empty_profile(self):
        empty = make_profile()
        (back,) = profiles_from_dict(profiles_to_dict([empty]))
        assert back == empty and not back.values and not back.scores


class TestRequestHygiene:
    @pytest.fixture()
    def server(self):
        with CacheServer(ProfileCache(), max_request_bytes=4096) as server:
            yield server

    def _post(self, url, body: bytes, content_type="application/json"):
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": content_type}, method="POST"
        )
        return urllib.request.urlopen(request, timeout=5.0)

    def test_malformed_json_is_a_clean_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/get_many", b"{not json")
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "not valid JSON" in payload["error"]

    def test_oversized_body_is_a_413_with_json_error(self, server):
        huge = json.dumps({"digests": ["0" * 64] * 1000}).encode()
        assert len(huge) > 4096
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/get_many", huge)
        assert excinfo.value.code == 413
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert "exceeds" in payload["error"]

    def test_unknown_endpoint_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/no-such-endpoint", b"{}")
        assert excinfo.value.code == 404

    def test_wrong_shapes_are_400(self, server):
        """Each body states the format, so it reaches its own shape check."""
        profile, key = tagged("p"), "ab" * 32
        one = profiles_to_dict([profile])
        two = profiles_to_dict([profile, profile])
        valueless = json.loads(json.dumps(one))
        del valueless["profiles"][0][1:]  # a row without its values
        cases = [
            ("/get_many", {"digests": "not-a-list"}, '"digests" must be a JSON array'),
            ("/get_many", {"digests": ["too-short"]}, "64-character"),
            ("/get", {"digest": 7}, "64-character"),
            ("/put", dict(one, keys=key), '"keys" must be a JSON array'),
            ("/put", dict(two, keys=[key]), "exactly one profile"),
            ("/put", dict(one, keys=[key], profiles=[None]), "exactly one profile"),
            ("/put", dict(valueless, keys=[key]), "malformed profile document"),
        ]
        for path, body, message in cases:
            body = dict(body, format=WIRE_FORMAT)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server.url + path, json.dumps(body).encode())
            assert excinfo.value.code == 400, path
            assert message in json.loads(excinfo.value.read().decode("utf-8"))["error"], body
        assert not server.contains(key)  # no refused /put stored anything

    def test_body_without_a_format_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server.url + "/get_many", json.dumps({"digests": []}).encode())
        assert excinfo.value.code == 400
        assert "wire format" in json.loads(excinfo.value.read().decode("utf-8"))["error"]

    def test_oversized_reject_does_not_corrupt_a_keepalive_connection(self, server):
        """The unread body must not be parsed as the next request."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            huge = json.dumps({"digests": ["0" * 64] * 1000}).encode()
            connection.request(
                "POST", "/get_many", body=huge, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
            # the server closed the connection instead of mis-parsing the
            # unread body; a fresh request on a new connection works fine
            connection.close()
            connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
            connection.request("GET", "/health")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    @pytest.mark.parametrize("bad", list(_MALFORMED_KEYS.values()), ids=list(_MALFORMED_KEYS))
    def test_malformed_key_is_refused_and_touches_no_files(self, tmp_path, bad):
        """Neither the disk tier nor the server builds a path from a bad key.

        Before validation, ``../``-shaped keys flowed into
        ``cache_dir / f"{key}.profile.json"`` -- letting a client read,
        touch or (via the invalid-entry discard) delete ``*.profile.json``
        files outside the served directory.
        """
        outside = [tmp_path / f"{'a' * 61}.profile.json", tmp_path / "x.profile.json"]
        for path in outside:
            path.write_bytes(b"not an entry; outside the served directory")
        before = [path.stat().st_mtime_ns for path in outside]
        store = tmp_path / "store"
        disk = DiskProfileCache(store)
        profile = tagged("p")

        with pytest.raises(ValueError, match="hex"):
            disk.put(bad, profile)
        assert disk.get(bad) is None
        assert disk.get_many([bad]) == [None]
        assert bad not in disk
        assert disk.stats.misses == 2 and disk.stats.hits == 0

        wire = list(bad) if isinstance(bad, tuple) else bad
        document = dict(profiles_to_dict([profile]), keys=[wire])
        with CacheServer(disk) as server:
            for path, body in [
                ("/get", {"format": WIRE_FORMAT, "digest": wire}),
                ("/get_many", {"format": WIRE_FORMAT, "digests": [wire]}),
                ("/contains", {"digest": wire}),
                ("/put", document),
            ]:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server.url + path, json.dumps(body).encode())
                assert excinfo.value.code == 400, path
                assert "hex" in json.loads(excinfo.value.read().decode())["error"], path
        assert list(store.iterdir()) == []
        for path, mtime in zip(outside, before):
            assert path.read_bytes() == b"not an entry; outside the served directory"
            assert path.stat().st_mtime_ns == mtime

    def test_health_and_stats_endpoints(self, server):
        with urllib.request.urlopen(server.url + "/health", timeout=5.0) as response:
            health = json.loads(response.read().decode("utf-8"))
        assert health["status"] == "ok"
        with urllib.request.urlopen(server.url + "/stats", timeout=5.0) as response:
            stats = json.loads(response.read().decode("utf-8"))
        assert {"entries", "stats", "tiers"} <= set(stats)
