from gridtvc.model import ModelConfig

from train_digest import digest

SMALL = ModelConfig(latent_dim=8, encoder_out=8, encoder_hidden=(8,),
                    message_hidden=(8,), decoder_hidden=(8,), dt=0.1)


def test_the_digest_is_a_pure_function_of_the_seed():
    first = digest(0, contexts=2, iterations=1, minibatch=2, model=SMALL)
    assert len(first) == 64 and int(first, 16) >= 0
    assert digest(0, contexts=2, iterations=1, minibatch=2, model=SMALL) == first
    assert digest(1, contexts=2, iterations=1, minibatch=2, model=SMALL) != first
