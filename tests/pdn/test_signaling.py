"""Tests for the signaling server's HTTP interface and swarm logic."""

import json

import pytest

from repro.environment import Environment
from repro.pdn.provider import PEER5, PdnProvider, private_profile
from repro.streaming.http import HttpClient


@pytest.fixture
def world():
    env = Environment(seed=21)
    provider = PdnProvider(env.loop, env.rand, PEER5)
    provider.install(env.urlspace)
    key = provider.signup_customer("site.com", None)
    return env, provider, key


def join(env, provider, credential, video="https://cdn/x.m3u8", ip="9.1.1.1", origin="https://site.com"):
    http = HttpClient(env.urlspace, client_ip=ip)
    response = http.post(
        f"https://{provider.profile.signaling_host}/v2/join",
        json.dumps({"credential": credential, "video_url": video}).encode(),
        headers={"Origin": origin},
    )
    body = json.loads(response.body.decode())
    return http, response, body


def post(env, provider, http, path, payload):
    response = http.post(
        f"https://{provider.profile.signaling_host}{path}", json.dumps(payload).encode()
    )
    return response, json.loads(response.body.decode() or "{}")


class TestJoin:
    def test_valid_join(self, world):
        env, provider, key = world
        _, response, body = join(env, provider, key.key)
        assert response.ok
        assert body["peer_id"].startswith("peer-")
        assert provider.signaling.joins_accepted == 1

    def test_invalid_key_403(self, world):
        env, provider, key = world
        _, response, body = join(env, provider, "bogus")
        assert response.status == 403
        assert provider.signaling.joins_rejected == 1

    def test_session_recorded_with_client_ip(self, world):
        env, provider, key = world
        http, _, body = join(env, provider, key.key, ip="7.7.7.7")
        session = provider.signaling._sessions[body["session_id"]]
        assert session.record.ip == "7.7.7.7"

    def test_bad_json_400(self, world):
        env, provider, key = world
        http = HttpClient(env.urlspace)
        response = http.post(
            f"https://{provider.profile.signaling_host}/v2/join", b"{not json"
        )
        assert response.status == 400

    def test_unknown_endpoint_404(self, world):
        env, provider, key = world
        http, _, body = join(env, provider, key.key)
        response, _ = post(env, provider, http, "/v2/nothing", {"session_id": body["session_id"]})
        assert response.status == 404

    def test_unknown_session_403(self, world):
        env, provider, key = world
        http = HttpClient(env.urlspace)
        response, _ = post(env, provider, http, "/v2/candidates", {"session_id": "nope"})
        assert response.status == 403


class TestSwarms:
    def test_same_video_same_swarm(self, world):
        env, provider, key = world
        join(env, provider, key.key, video="https://cdn/a.m3u8")
        join(env, provider, key.key, video="https://cdn/a.m3u8", ip="9.1.1.2")
        join(env, provider, key.key, video="https://cdn/b.m3u8", ip="9.1.1.3")
        swarms = provider.signaling.swarm_ids()
        assert len(swarms) == 2
        assert provider.signaling.swarm_size("site.com|https://cdn/a.m3u8") == 2

    def test_candidates_exclude_self(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, ip="9.1.1.1")
        join(env, provider, key.key, ip="9.1.1.2")
        _, payload = post(env, provider, http_a, "/v2/candidates", {"session_id": body_a["session_id"]})
        ips = [p["ip"] for p in payload["peers"]]
        assert ips == ["9.1.1.2"]

    def test_candidate_disclosure_logged(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, ip="9.1.1.1")
        join(env, provider, key.key, ip="9.1.1.2")
        post(env, provider, http_a, "/v2/candidates", {"session_id": body_a["session_id"]})
        assert len(provider.signaling.disclosures) == 1
        assert provider.signaling.disclosures[0].ip == "9.1.1.2"

    def test_relay_reaches_target(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, ip="9.1.1.1")
        http_b, _, body_b = join(env, provider, key.key, ip="9.1.1.2")
        inbox = []
        provider.signaling.attach(body_b["session_id"], inbox.append)
        response, payload = post(
            env, provider, http_a, "/v2/relay",
            {"session_id": body_a["session_id"], "to": body_b["peer_id"],
             "kind": "offer", "payload": {"sdp": 1}},
        )
        assert payload["ok"]
        assert inbox == [{"type": "offer", "from": body_a["peer_id"], "payload": {"sdp": 1}}]

    def test_relay_to_missing_peer_fails_soft(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key)
        _, payload = post(
            env, provider, http_a, "/v2/relay",
            {"session_id": body_a["session_id"], "to": "peer-999", "kind": "offer", "payload": {}},
        )
        assert payload["ok"] is False

    def test_leave_removes_from_swarm(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, video="https://cdn/a.m3u8")
        post(env, provider, http_a, "/v2/leave", {"session_id": body_a["session_id"]})
        assert provider.signaling.swarm_size("site.com|https://cdn/a.m3u8") == 0


class TestBillingIntegration:
    def test_stats_reports_bill_p2p_bytes(self, world):
        env, provider, key = world
        http, _, body = join(env, provider, key.key)
        post(env, provider, http, "/v2/stats", {"session_id": body["session_id"], "p2p_up": 5000, "p2p_down": 100})
        assert provider.billing.account("site.com").p2p_bytes == 5000

    def test_viewer_time_billed_on_leave(self, world):
        env, provider, key = world
        http, _, body = join(env, provider, key.key)
        for _ in range(6):  # keepalives, as the SDK's stats timer sends
            env.run(20.0)
            post(env, provider, http, "/v2/stats",
                 {"session_id": body["session_id"], "p2p_up": 0, "p2p_down": 0})
        post(env, provider, http, "/v2/leave", {"session_id": body["session_id"]})
        assert provider.billing.account("site.com").viewer_seconds == pytest.approx(120.0)

    def test_settle_all_flushes_open_sessions(self, world):
        env, provider, key = world
        join(env, provider, key.key)
        env.run(60.0)
        provider.signaling.settle_all()
        assert provider.billing.account("site.com").viewer_seconds == pytest.approx(60.0)


class TestBlacklist:
    def test_banned_peer_rejected_everywhere(self, world):
        env, provider, key = world
        http, _, body = join(env, provider, key.key, ip="9.1.1.1")
        peer_id = body["peer_id"]
        provider.signaling.ban_peer(peer_id)
        response, _ = post(env, provider, http, "/v2/candidates", {"session_id": body["session_id"]})
        assert response.status == 403

    def test_banned_peer_not_disclosed(self, world):
        env, provider, key = world
        join(env, provider, key.key, ip="9.1.1.1")
        http_b, _, body_b = join(env, provider, key.key, ip="9.1.1.2")
        provider.signaling.ban_peer("peer-1")
        _, payload = post(env, provider, http_b, "/v2/candidates", {"session_id": body_b["session_id"]})
        assert payload["peers"] == []


class TestGeoResolver:
    def test_geo_resolver_attributes_country(self, world):
        env, provider, key = world
        provider.signaling.geo_resolver = env.geo.resolver()
        cn_ip = env.geo.random_ip(env.rand.fork("x"), "CN")
        http, _, body = join(env, provider, key.key, ip=cn_ip)
        session = provider.signaling._sessions[body["session_id"]]
        assert session.record.country == "CN"


class TestPrivateProviderJoin:
    def test_session_token_join(self):
        env = Environment(seed=22)
        provider = PdnProvider(env.loop, env.rand, private_profile("p.com", "signal.p.com"))
        provider.install(env.urlspace)
        provider.signup_customer("p.com", {"p.com"})
        token = provider.issue_session_token("p.com", "https://cdn/v.m3u8")
        _, response, _ = join(env, provider, token, video="https://cdn/v.m3u8")
        assert response.ok
        _, response2, _ = join(env, provider, token, video="https://cdn/OTHER.m3u8")
        assert response2.status == 403


class TestSessionReaper:
    def test_silent_peer_expired_and_undisclosed(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, ip="9.1.1.1")
        http_b, _, body_b = join(env, provider, key.key, ip="9.1.1.2")
        # peer B goes silent (crashed tab); peer A keeps pinging
        for _ in range(10):
            env.run(15.0)
            post(env, provider, http_a, "/v2/stats",
                 {"session_id": body_a["session_id"], "p2p_up": 0, "p2p_down": 0})
        assert provider.signaling.sessions_reaped >= 1
        _, payload = post(env, provider, http_a, "/v2/candidates",
                          {"session_id": body_a["session_id"]})
        assert all(p["ip"] != "9.1.1.2" for p in payload["peers"])

    def test_active_peer_not_reaped(self, world):
        env, provider, key = world
        http_a, _, body_a = join(env, provider, key.key, ip="9.1.1.1")
        for _ in range(10):
            env.run(15.0)
            post(env, provider, http_a, "/v2/stats",
                 {"session_id": body_a["session_id"], "p2p_up": 0, "p2p_down": 0})
        response, _ = post(env, provider, http_a, "/v2/candidates",
                           {"session_id": body_a["session_id"]})
        assert response.ok

    def test_reaped_session_settles_billing(self, world):
        env, provider, key = world
        join(env, provider, key.key, ip="9.1.1.3")
        env.run(200.0)  # silent: gets reaped
        account = provider.billing.account("site.com")
        assert account.viewer_seconds > 0


class TestSessionLifetime:
    def test_left_and_reaped_sessions_are_dropped(self, world):
        env, provider, key = world
        peers = [join(env, provider, key.key, ip=f"9.1.1.{i}") for i in range(3)]
        http_a, _, body_a = peers[0]
        post(env, provider, http_a, "/v2/leave", {"session_id": body_a["session_id"]})
        env.run(200.0)  # the other two go silent and get reaped
        assert provider.signaling.sessions_reaped == 2
        assert provider.signaling._sessions == {}
        for http, _, body in peers:
            response, payload = post(env, provider, http, "/v2/stats",
                                     {"session_id": body["session_id"], "p2p_up": 0, "p2p_down": 0})
            assert response.status == 403
            assert payload == {"error": "unknown session"}
