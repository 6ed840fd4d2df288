#!/usr/bin/env python
"""Extension lab: spot-market training with checkpoint recovery.

The course ran everything on-demand (§III-A1).  This walkthrough — a
"Build Your Own Lab" in the spirit of Appendix B — prices the same
training job on the spot market, rides out an interruption with the
checkpoint/restore recipe, and totals the savings.

Run:  python examples/spot_training.py
"""

import numpy as np

import repro.nn as nn
from repro.cloud import CloudSession, SpotService
from repro.nn.checkpoint import load, save
from repro.nn.tensor import Tensor

CKPT = "/tmp/spot_training_ckpt.npz"
TOTAL_EPOCHS = 30


def make_model():
    return nn.Sequential(nn.Linear(16, 32, seed=1), nn.ReLU(),
                         nn.Linear(32, 4, seed=2))


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 16)).astype(np.float32)
    w_true = rng.standard_normal((16, 4)).astype(np.float32)
    y = (x @ w_true).argmax(axis=1)  # a learnable 4-class task

    cloud = CloudSession()
    cloud.set_term("extension")
    cloud.register_student("you")
    spot = SpotService(cloud.ec2, seed=0)

    price = spot.current_price("g4dn.xlarge")
    print(f"on-demand g4dn.xlarge: $0.526/h; spot right now: ${price:.3f}/h "
          f"({price / 0.526:.0%} of on-demand)")

    # deliberately fragile bid so we experience an interruption
    req = spot.request("g4dn.xlarge", owner="you",
                       max_price_usd=price * 1.0001)
    req.instance.gpu_system()
    model = make_model().to("cuda:0")
    opt = nn.SGD(model.parameters(), lr=0.1)

    epoch = 0
    interruptions = 0
    while epoch < TOTAL_EPOCHS:
        opt.zero_grad()
        loss = nn.cross_entropy(model(Tensor(x, device="cuda:0")), y)
        loss.backward()
        opt.step()
        epoch += 1
        save(model, CKPT, metadata={"epoch": epoch})
        cloud.advance_hours(1.0)

        if spot.process_interruptions():
            interruptions += 1
            print(f"  !! spot interruption at epoch {epoch} "
                  f"(market ${spot.current_price('g4dn.xlarge'):.3f} "
                  f"> bid ${req.max_price_usd:.3f})")
            # re-request with the safe default bid and restore
            req = spot.request("g4dn.xlarge", owner="you")
            req.instance.gpu_system()
            model = make_model().to("cuda:0")
            meta = load(model, CKPT)
            opt = nn.SGD(model.parameters(), lr=0.1)
            print(f"  -> recovered on {req.instance.instance_id} from "
                  f"epoch {meta['epoch']} checkpoint")

    if req.active:
        cloud.ec2.terminate(req.instance.instance_id)
    final_loss = nn.cross_entropy(model(Tensor(x, device="cuda:0")),
                                  y).item()
    spend = cloud.billing.explorer.spend_by_owner()["you"]
    on_demand_equiv = TOTAL_EPOCHS * 1.0 * 0.526
    print(f"\ntrained {TOTAL_EPOCHS} epochs (final loss {final_loss:.3f}) "
          f"through {interruptions} interruption(s)")
    print(f"spot bill: ${spend:.2f} vs on-demand ${on_demand_equiv:.2f} "
          f"— saved {1 - spend / on_demand_equiv:.0%}")


if __name__ == "__main__":
    main()
