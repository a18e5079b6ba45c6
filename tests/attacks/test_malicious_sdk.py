"""Tests for the replay attack and IM flooding (§V-B robustness)."""

import pytest

from repro.attacks.malicious_sdk import ImFlooder, ReplayPeer
from repro.core.testbed import build_test_bed
from repro.defenses.integrity import ClientIntegrity, IntegrityCoordinator
from repro.environment import Environment
from repro.pdn.provider import PEER5
from repro.streaming.player import VideoPlayer


def make_world(seed, integrity=False, quorum=1):
    env = Environment(seed=seed)
    bed = build_test_bed(env, PEER5, video_segments=10, segment_seconds=3.0)
    client_integrity = None
    coordinator = None
    if integrity:
        coordinator = IntegrityCoordinator(
            env.loop, env.rand.fork("im"), bed.provider, env.urlspace, quorum=quorum
        ).install()
        client_integrity = ClientIntegrity(env.loop, coordinator)
    return env, bed, client_integrity, coordinator


def launch_replay_peer(env, bed, integrity):
    host = env.add_viewer_host("replayer", "US")
    attacker = ReplayPeer(
        loop=env.loop,
        rand=env.rand,
        host=host,
        http=env.http_client(host),
        provider=bed.provider,
        credential=bed.api_key,
        page_origin=f"https://{bed.site.domain}",
        video_url=bed.video_url,
        rtc_config=env.rtc_config(),
        name="replayer",
        integrity=None,  # the attacker doesn't run the defense
    )
    assert attacker.start()
    # Legitimately download the whole video (recording segments + SIMs).
    base = bed.video_url.rsplit("/", 1)[0] + "/"
    for segment in bed.video.segments:
        attacker.fetch_segment(base, segment.filename, segment.index, lambda d, s, h: None)
    return attacker


def launch_victim(env, bed, integrity):
    from repro.pdn.sdk import PdnClient

    host = env.add_viewer_host("victim", "US")
    sdk = PdnClient(
        loop=env.loop,
        rand=env.rand,
        host=host,
        http=env.http_client(host),
        provider=bed.provider,
        credential=bed.api_key,
        page_origin=f"https://{bed.site.domain}",
        video_url=bed.video_url,
        rtc_config=env.rtc_config(),
        name="victim",
        integrity=integrity,
    )
    assert sdk.start()
    player = VideoPlayer(env.loop, sdk, bed.video_url, name="victim")
    player.start()
    return sdk, player


class TestReplayAttack:
    def test_replay_succeeds_without_integrity_checking(self):
        """No SIM verification: the victim renders authentic-but-wrong
        segments — content replayed out of position."""
        env, bed, integrity, _ = make_world(171, integrity=False)
        attacker = launch_replay_peer(env, bed, None)
        env.run(5.0)
        victim_sdk, player = launch_victim(env, bed, None)
        env.run(60.0)
        assert player.finished
        assert attacker.replays_served > 0
        authentic_in_order = [s.digest for s in bed.video.segments]
        played = player.stats.played_digests()
        assert played != authentic_in_order  # order corrupted by replays
        # every replayed digest IS authentic content — just misplaced
        assert set(played) <= set(authentic_in_order)

    def test_replay_blocked_by_position_bound_im(self):
        """§V-B: the IM binds (content, video, position); the recorded
        segment fails verification at the wrong index and the replayer
        is banned by the victim."""
        env, bed, integrity, coordinator = make_world(172, integrity=True)
        attacker = launch_replay_peer(env, bed, None)
        env.run(5.0)
        victim_sdk, player = launch_victim(env, bed, integrity)
        env.run(80.0)
        assert player.finished
        assert player.stats.played_digests() == [s.digest for s in bed.video.segments]
        if attacker.replays_served:
            assert integrity.rejections > 0
            assert victim_sdk.stats.neighbors_banned > 0


class TestImFlooding:
    def test_flooder_banned_and_cost_bounded(self):
        env, bed, integrity, coordinator = make_world(173, integrity=True, quorum=2)
        host = env.add_viewer_host("flooder", "US")
        from repro.pdn.sdk import PdnClient

        flood_sdk = PdnClient(
            loop=env.loop, rand=env.rand, host=host, http=env.http_client(host),
            provider=bed.provider, credential=bed.api_key,
            page_origin=f"https://{bed.site.domain}", video_url=bed.video_url,
            rtc_config=env.rtc_config(), name="flooder",
        )
        assert flood_sdk.start()
        # an honest peer reports authentic IMs first
        from repro.defenses.integrity import compute_im, content_id

        for segment in bed.video.segments:
            coordinator.receive_report(
                "honest", bed.video_url, segment.index,
                compute_im(segment.data, content_id(bed.video_url, ''), segment.index),
            )
        flooder = ImFlooder(flood_sdk)
        flooder.flood(range(len(bed.video.segments)), rounds=10)
        assert flooder.reports_sent == 100
        assert coordinator.cdn_fetches <= len(bed.video.segments)
        assert flood_sdk.peer_id in coordinator.peers_blacklisted
        # the blacklisted peer is cut off from signaling entirely
        assert flood_sdk.peer_id in bed.provider.signaling.blacklist
