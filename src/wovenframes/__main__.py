from .cli import run

run("python -m wovenframes")
