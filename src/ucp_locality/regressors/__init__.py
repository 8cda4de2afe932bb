"""Base productivity learners mapping the four size variables to PDR."""

from .base import model_from_dict
from .cart import CartModel, CartNode, cart_fit, cart_predict
from .stepwise import StepwiseModel, stepwise_fit, stepwise_predict
from .svr import SvrModel, svr_fit, svr_predict

__all__ = [
    "CartModel", "CartNode", "cart_fit", "cart_predict",
    "SvrModel", "svr_fit", "svr_predict",
    "StepwiseModel", "stepwise_fit", "stepwise_predict",
    "model_from_dict",
]
