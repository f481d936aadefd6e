import numpy as np

from weaktrace import scendsl
from weaktrace.optics import element_operator
from weaktrace.scendsl import FIG2_TEXT, parse_scenario


def test_each_element_operator_built_once(monkeypatch):
    built = []

    def counting(spec, basis):
        built.append(spec)
        return element_operator(spec, basis)

    monkeypatch.setattr(scendsl, "element_operator", counting)
    scenario = parse_scenario(FIG2_TEXT)
    elements = [spec for stage in scenario.stages for spec in stage.elements]
    assert len(elements) == 5
    assert built == elements


def test_stage_unitary_is_product_of_element_operators(fig2):
    for stage in fig2.stages:
        expected = np.eye(fig2.basis.dimension, dtype=np.complex128)
        for spec in stage.elements:
            expected = element_operator(spec, fig2.basis).matrix @ expected
        np.testing.assert_array_equal(stage.unitary.matrix, expected)
        assert stage.unitary.unitary
