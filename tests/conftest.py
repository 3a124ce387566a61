import numpy as np
import pytest
from hypothesis import strategies as st

from embprobe.data_model import Manifest, ManifestRow


def make_row(utt, speaker="S001", gender="female", age=25, accent="english",
             bonafide=True, attack_id=None, attack_type=None,
             transcript=None, audio_path=None):
    return ManifestRow(utt_id=utt, speaker_id=speaker, gender=gender, age=age,
                       accent=accent, is_bonafide=bonafide, attack_id=attack_id,
                       attack_type=attack_type, transcript=transcript,
                       audio_path=audio_path)


def toy_manifest(n_speakers=4, bonafide_per_speaker=4, spoof_per_speaker=2,
                 attacks=("A07", "A08")):
    """Small mixed manifest: alternating genders, cycling attacks."""
    rows = []
    k = 0
    for s in range(n_speakers):
        speaker = f"S{s:03d}"
        gender = "female" if s % 2 == 0 else "male"
        for u in range(bonafide_per_speaker):
            rows.append(make_row(f"{speaker}_B{u}", speaker=speaker, gender=gender,
                                 age=20 + s, transcript="one two three"))
        for u in range(spoof_per_speaker):
            attack = attacks[k % len(attacks)]
            k += 1
            rows.append(make_row(f"{speaker}_S{u}", speaker=speaker, gender=gender,
                                 age=20 + s, bonafide=False, attack_id=attack,
                                 attack_type="TTS" if attack == "A07" else "VC"))
    return Manifest(rows=tuple(rows))


def damaged(blob: bytes, data) -> bytes:
    """`blob` truncated, or with one byte flipped by a nonzero mask, as drawn
    from hypothesis `data`."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="mask")
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]


@pytest.fixture
def mixed_manifest():
    return toy_manifest()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
